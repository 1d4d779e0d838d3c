#include "text/hashing.h"

namespace dust::text {

uint64_t HashString(std::string_view s, uint64_t seed) {
  return HashFinish(HashBytes(HashBasis(seed), s));
}

}  // namespace dust::text
