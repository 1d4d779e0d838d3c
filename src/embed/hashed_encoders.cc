#include "embed/hashed_encoders.h"

#include <cmath>

#include "text/hashing.h"
#include "util/rng.h"
#include "util/status.h"

namespace dust::embed {

// Distinct per-family constants so families embed into unrelated spaces.
uint64_t FamilySeedConstant(ModelFamily family) {
  switch (family) {
    case ModelFamily::kFastText:
      return 0xFA57FA57ULL;
    case ModelFamily::kGlove:
      return 0x610E610EULL;
    case ModelFamily::kBert:
      return 0xBE27BE27ULL;
    case ModelFamily::kRoberta:
      return 0x20BE27AULL;
    case ModelFamily::kSbert:
      return 0x5BE275BEULL;
  }
  return 0;
}

HashedEncoder::HashedEncoder(ModelFamily family, const EmbedderConfig& config)
    : family_(family),
      config_(config),
      family_seed_(SplitMix64(config.seed ^ FamilySeedConstant(family))) {
  DUST_CHECK(config_.dim > 0);
}

std::string HashedEncoder::name() const {
  return ModelFamilyName(family_);
}

la::Vec HashedEncoder::Embed(const std::string& text) const {
  const size_t dim = config_.dim;
  la::Vec v(dim, 0.0f);
  const size_t num_features =
      ForEachFeatureHash(family_, text, family_seed_, [&](uint64_t h) {
        v[text::HashIndex(h, dim)] += text::HashSign(h);
      });
  if (family_ == ModelFamily::kSbert) {
    // Sub-linear term weighting: re-embed with sqrt(tf) weights.
    // (Approximated by normalizing the bag vector before noise.)
    la::NormalizeInPlace(&v);
  }
  if (config_.noise_level > 0.0f) {
    // Deterministic per-text noise: same text always gets the same noise, so
    // identical tuples still embed identically; distinct texts get
    // independent perturbations proportional to the model's noise level.
    // The noise decays with the number of features: longer inputs are
    // represented more faithfully, emulating the paper's observation that
    // language models understand columns better when given more tokens at
    // once (Sec. 6.2.4). The floor keeps long texts from becoming exact.
    la::NormalizeInPlace(&v);
    Rng rng(text::HashString(text, family_seed_ ^ 0xA015EULL));
    float context = 1.0f + static_cast<float>(num_features) / 6.0f;
    float effective = config_.noise_level * (0.3f + 0.7f / context);
    float scale = effective / std::sqrt(static_cast<float>(config_.dim));
    for (float& x : v) {
      x += scale * static_cast<float>(rng.NextGaussian());
    }
  }
  la::NormalizeInPlace(&v);
  return v;
}

}  // namespace dust::embed
