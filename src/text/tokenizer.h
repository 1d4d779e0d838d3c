// Tokenization utilities used by the embedding models.
//
// Words are maximal runs of ASCII letters and digits, lowercased. Bytes are
// classified by one fixed table, never by <cctype>, so tokens (and with them
// every embedding and snapshot) do not depend on the process locale. The
// table equals std::isalnum / std::tolower in the "C" locale.
//
// The model families of Sec. 6.2.3 build their features from words:
// character n-grams (FastText), and bounded-length subword pieces
// (BERT / RoBERTa, approximating WordPiece). Those features are hashed as a
// stream straight from the text (embed::ForEachFeatureHash); CharNgrams
// remains for the overlap baseline's MinHash sets.
#ifndef DUST_TEXT_TOKENIZER_H_
#define DUST_TEXT_TOKENIZER_H_

#include <string>
#include <string_view>
#include <vector>

namespace dust::text {

namespace internal {
struct WordByteTable {
  unsigned char lower[256];
  constexpr WordByteTable() : lower() {
    for (int c = 0; c < 256; ++c) {
      if ((c >= '0' && c <= '9') || (c >= 'a' && c <= 'z')) {
        lower[c] = static_cast<unsigned char>(c);
      } else if (c >= 'A' && c <= 'Z') {
        lower[c] = static_cast<unsigned char>(c - 'A' + 'a');
      }
    }
  }
};
inline constexpr WordByteTable kWordBytes{};
}  // namespace internal

/// The lowercased byte if `c` is an ASCII letter or digit, else 0.
inline unsigned char WordByte(char c) {
  return internal::kWordBytes.lower[static_cast<unsigned char>(c)];
}

/// Calls `fn(word)` for each maximal run of word bytes in `s`, in order.
/// `word` is a view of the raw (not yet lowercased) bytes.
template <typename Fn>
void ForEachWord(std::string_view s, Fn&& fn) {
  const size_t n = s.size();
  size_t i = 0;
  while (i < n) {
    while (i < n && WordByte(s[i]) == 0) ++i;
    const size_t begin = i;
    while (i < n && WordByte(s[i]) != 0) ++i;
    if (i > begin) fn(s.substr(begin, i - begin));
  }
}

/// Lowercases and splits on non-alphanumeric boundaries; digits are kept as
/// their own tokens so "773 731-0380" yields {"773", "731", "0380"}.
std::vector<std::string> WordTokens(std::string_view s);

/// WordTokens(s) appended to `*out`.
void AppendWordTokens(std::string_view s, std::vector<std::string>* out);

/// Character n-grams of each word padded with '<' '>' (FastText convention).
/// E.g. n=3, "park" -> {"<pa", "par", "ark", "rk>"}.
std::vector<std::string> CharNgrams(std::string_view s, size_t n);

/// Number of whitespace-separated tokens — the token budget proxy used by
/// the simulated LLM baseline. Whitespace is the "C" locale's set (space
/// and \t \n \v \f \r) whatever the process locale.
size_t ApproxTokenCount(std::string_view s);

}  // namespace dust::text

#endif  // DUST_TEXT_TOKENIZER_H_
