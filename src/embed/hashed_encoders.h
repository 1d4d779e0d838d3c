// Concrete feature-hashing encoders, one per simulated model family.
//
// A text's features are hashed as a stream: the tokenizer scans the text once
// per feature kind and feeds each feature's bytes (lowercased word bytes, the
// "##" of continuation pieces, the "|" of piece bigrams, the "<" ">" n-gram
// padding) straight into text::HashBytes. No feature string is built.
#ifndef DUST_EMBED_HASHED_ENCODERS_H_
#define DUST_EMBED_HASHED_ENCODERS_H_

#include <string>
#include <string_view>

#include "embed/embedder.h"
#include "text/hashing.h"
#include "text/tokenizer.h"

namespace dust::embed {

/// Per-family hash-seed mixing constant (distinct embedding spaces).
uint64_t FamilySeedConstant(ModelFamily family);

/// Calls `sink(h)` for every family feature f of `text`, in the order below,
/// with h == text::HashString(f, seed); returns the number of features.
/// Words are text::WordTokens; a word's pieces of m are its consecutive
/// m-byte slices (the last may be shorter), "##" before all but the first.
///  - GloVe, sBERT: the words.
///  - FastText: the words, then every 3-gram of "<word>" over all words,
///    then every 4-gram ("<word>" no longer than n is one n-gram).
///  - BERT: the pieces of 4 of each word (no cross-token context).
///  - RoBERTa: per word, the piece bigrams "p_i|p_{i+1}", then the pieces
///    of 6 (context within a word, so the representation is insensitive to
///    cell/token order, like a real contextual encoder's pooled output).
/// Shared by the frozen encoders and the trainable DUST model, which uses the
/// same frozen featurization (DESIGN.md §1).
template <typename Sink>
size_t ForEachFeatureHash(ModelFamily family, std::string_view text,
                          uint64_t seed, Sink&& sink);

/// Shared implementation: feature-hash the family's features, add
/// deterministic quality noise, L2-normalize.
class HashedEncoder : public TextEmbedder {
 public:
  HashedEncoder(ModelFamily family, const EmbedderConfig& config);

  la::Vec Embed(const std::string& text) const override;
  size_t dim() const override { return config_.dim; }
  std::string name() const override;

  ModelFamily family() const { return family_; }

 private:
  ModelFamily family_;
  EmbedderConfig config_;
  uint64_t family_seed_;
};

// --- implementation ------------------------------------------------------

namespace internal {

inline uint64_t HashLowered(uint64_t h, std::string_view raw) {
  for (char c : raw) h = text::HashByte(h, text::WordByte(c));
  return h;
}

// Pieces of `max_piece` of `word`; `cont` is the basis already fed "##".
template <typename Emit>
void HashPieces(std::string_view word, size_t max_piece, uint64_t basis,
                uint64_t cont, Emit& emit) {
  for (size_t pos = 0; pos < word.size(); pos += max_piece) {
    emit(HashLowered(pos == 0 ? basis : cont, word.substr(pos, max_piece)));
  }
}

// Every n-gram of "<word>" for every word of `text`.
template <typename Emit>
void HashCharNgrams(std::string_view text, size_t n, uint64_t basis,
                    Emit& emit) {
  text::ForEachWord(text, [&](std::string_view word) {
    const size_t padded = word.size() + 2;
    auto byte_at = [&](size_t j) -> unsigned char {
      if (j == 0) return '<';
      if (j == padded - 1) return '>';
      return text::WordByte(word[j - 1]);
    };
    const size_t len = padded < n ? padded : n;
    for (size_t i = 0; i + len <= padded; ++i) {
      uint64_t h = basis;
      for (size_t j = i; j < i + len; ++j) h = text::HashByte(h, byte_at(j));
      emit(h);
    }
  });
}

}  // namespace internal

template <typename Sink>
size_t ForEachFeatureHash(ModelFamily family, std::string_view text,
                          uint64_t seed, Sink&& sink) {
  // Each feature feeds its bytes into a copy of the seeded basis state;
  // emit finishes the hash and hands it on.
  const uint64_t basis = text::HashBasis(seed);
  const uint64_t cont = text::HashBytes(basis, "##");
  size_t count = 0;
  auto emit = [&](uint64_t h) {
    sink(text::HashFinish(h));
    ++count;
  };
  auto words = [&] {
    text::ForEachWord(text, [&](std::string_view word) {
      emit(internal::HashLowered(basis, word));
    });
  };
  switch (family) {
    case ModelFamily::kGlove:
    case ModelFamily::kSbert:
      words();
      break;
    case ModelFamily::kFastText:
      words();
      internal::HashCharNgrams(text, 3, basis, emit);
      internal::HashCharNgrams(text, 4, basis, emit);
      break;
    case ModelFamily::kBert:
      text::ForEachWord(text, [&](std::string_view word) {
        internal::HashPieces(word, 4, basis, cont, emit);
      });
      break;
    case ModelFamily::kRoberta: {
      constexpr size_t kPiece = 6;
      text::ForEachWord(text, [&](std::string_view word) {
        // Bigram i: piece i, then "|##" and piece i + 1.
        for (size_t pos = 0; pos + kPiece < word.size(); pos += kPiece) {
          uint64_t h = internal::HashLowered(pos == 0 ? basis : cont,
                                             word.substr(pos, kPiece));
          h = text::HashBytes(h, "|##");
          emit(internal::HashLowered(h, word.substr(pos + kPiece, kPiece)));
        }
        internal::HashPieces(word, kPiece, basis, cont, emit);
      });
      break;
    }
  }
  return count;
}

}  // namespace dust::embed

#endif  // DUST_EMBED_HASHED_ENCODERS_H_
