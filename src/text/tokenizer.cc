#include "text/tokenizer.h"

namespace dust::text {

void AppendWordTokens(std::string_view s, std::vector<std::string>* out) {
  ForEachWord(s, [out](std::string_view word) {
    std::string& token = out->emplace_back(word);
    for (char& c : token) c = static_cast<char>(WordByte(c));
  });
}

std::vector<std::string> WordTokens(std::string_view s) {
  std::vector<std::string> out;
  AppendWordTokens(s, &out);
  return out;
}

std::vector<std::string> CharNgrams(std::string_view s, size_t n) {
  std::vector<std::string> out;
  for (const std::string& word : WordTokens(s)) {
    std::string padded = "<" + word + ">";
    if (padded.size() <= n) {
      out.push_back(padded);
      continue;
    }
    for (size_t i = 0; i + n <= padded.size(); ++i) {
      out.push_back(padded.substr(i, n));
    }
  }
  return out;
}

size_t ApproxTokenCount(std::string_view s) {
  size_t count = 0;
  bool in_token = false;
  for (char raw : s) {
    // The "C" locale's isspace set, fixed so a host program's locale
    // cannot change the count.
    const bool space = raw == ' ' || (raw >= '\t' && raw <= '\r');
    if (!space && !in_token) ++count;
    in_token = !space;
  }
  return count;
}

}  // namespace dust::text
