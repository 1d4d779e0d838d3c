#include "nn/dust_model.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <utility>
#include <vector>

#include "text/hashing.h"

namespace dust::nn {

DustModel::DustModel(const DustModelConfig& config)
    : config_(config),
      feature_seed_(SplitMix64(config.seed ^
                               embed::FamilySeedConstant(config.family))),
      lin1_(config.feature_dim, config.hidden_dim, config.seed ^ 0x11ULL),
      lin2_(config.hidden_dim, config.embedding_dim, config.seed ^ 0x22ULL) {
  DUST_CHECK(config.feature_dim > 0 && config.hidden_dim > 0 &&
             config.embedding_dim > 0);
}

std::string DustModel::name() const {
  return std::string("DUST (") + embed::ModelFamilyName(config_.family) + ")";
}

text::SparseVector DustModel::Featurize(const std::string& serialized) const {
  // (index, sign) per feature in stream order; the stable sort keeps that
  // order within an index, so each index sums its signs in stream order.
  std::vector<std::pair<uint32_t, float>> hits;
  embed::ForEachFeatureHash(
      config_.family, serialized, feature_seed_, [&](uint64_t h) {
        hits.emplace_back(
            static_cast<uint32_t>(text::HashIndex(h, config_.feature_dim)),
            text::HashSign(h));
      });
  std::stable_sort(hits.begin(), hits.end(), [](const auto& a, const auto& b) {
    return a.first < b.first;
  });
  text::SparseVector sv;
  for (size_t i = 0; i < hits.size();) {
    const uint32_t index = hits[i].first;
    float sum = 0.0f;
    for (; i < hits.size() && hits[i].first == index; ++i) {
      sum += hits[i].second;
    }
    if (sum == 0.0f) continue;  // cancelled signs
    sv.indices.push_back(index);
    sv.values.push_back(sum);
  }
  return sv;
}

la::Vec DustModel::EncodeSerialized(const std::string& serialized) const {
  text::SparseVector x = Featurize(serialized);
  la::Vec hidden = TanhForward(lin1_.ForwardSparse(x));
  return lin2_.Forward(hidden);
}

la::Vec DustModel::ForwardTrain(const std::string& serialized, Rng* rng,
                                ForwardCache* cache) {
  text::SparseVector x = Featurize(serialized);
  // Inverted dropout on the frozen features (Sec. 4: dropout right after
  // the frozen encoder, before the two linear layers).
  cache->dropped.indices.clear();
  cache->dropped.values.clear();
  float keep = 1.0f - config_.dropout_p;
  float scale = (keep > 0.0f) ? 1.0f / keep : 0.0f;
  for (size_t k = 0; k < x.indices.size(); ++k) {
    if (config_.dropout_p <= 0.0f || rng->NextDouble() < keep) {
      cache->dropped.indices.push_back(x.indices[k]);
      cache->dropped.values.push_back(x.values[k] * scale);
    }
  }
  cache->hidden_act = TanhForward(lin1_.ForwardSparse(cache->dropped));
  cache->output = lin2_.Forward(cache->hidden_act);
  return cache->output;
}

void DustModel::Backward(const ForwardCache& cache, const la::Vec& grad_output) {
  la::Vec grad_hidden = lin2_.Backward(cache.hidden_act, grad_output);
  la::Vec grad_pre = TanhBackward(cache.hidden_act, grad_hidden);
  lin1_.BackwardSparse(cache.dropped, grad_pre);
}

void DustModel::ZeroGrad() {
  lin1_.ZeroGrad();
  lin2_.ZeroGrad();
}

void DustModel::RegisterParams(Optimizer* optimizer) {
  optimizer->Register({lin1_.weights().data().data(),
                       lin1_.weight_grad().data().data(),
                       lin1_.weights().data().size()});
  optimizer->Register(
      {lin1_.bias().data(), lin1_.bias_grad().data(), lin1_.bias().size()});
  optimizer->Register({lin2_.weights().data().data(),
                       lin2_.weight_grad().data().data(),
                       lin2_.weights().data().size()});
  optimizer->Register(
      {lin2_.bias().data(), lin2_.bias_grad().data(), lin2_.bias().size()});
}

std::vector<float> DustModel::SaveParams() const {
  std::vector<float> out;
  out.reserve(lin1_.weights().data().size() + lin1_.bias().size() +
              lin2_.weights().data().size() + lin2_.bias().size());
  auto append = [&out](const std::vector<float>& v) {
    out.insert(out.end(), v.begin(), v.end());
  };
  append(lin1_.weights().data());
  append(lin1_.bias());
  append(lin2_.weights().data());
  append(lin2_.bias());
  return out;
}

void DustModel::LoadParams(const std::vector<float>& params) {
  size_t offset = 0;
  auto take = [&](std::vector<float>& dst) {
    DUST_CHECK(offset + dst.size() <= params.size());
    std::copy(params.begin() + offset, params.begin() + offset + dst.size(),
              dst.begin());
    offset += dst.size();
  };
  take(lin1_.weights().data());
  take(lin1_.bias());
  take(lin2_.weights().data());
  take(lin2_.bias());
  DUST_CHECK(offset == params.size());
}

namespace {
constexpr uint32_t kModelMagic = 0xD0570001;
}  // namespace

Status DustModel::SaveToFile(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  uint32_t magic = kModelMagic;
  uint64_t dims[4] = {config_.feature_dim, config_.hidden_dim,
                      config_.embedding_dim,
                      static_cast<uint64_t>(config_.family)};
  out.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
  out.write(reinterpret_cast<const char*>(dims), sizeof(dims));
  std::vector<float> params = SaveParams();
  uint64_t count = params.size();
  out.write(reinterpret_cast<const char*>(&count), sizeof(count));
  out.write(reinterpret_cast<const char*>(params.data()),
            static_cast<std::streamsize>(count * sizeof(float)));
  return out.good() ? Status::Ok() : Status::IoError("write failed: " + path);
}

Status DustModel::LoadFromFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open " + path);
  uint32_t magic = 0;
  uint64_t dims[4] = {0, 0, 0, 0};
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  in.read(reinterpret_cast<char*>(dims), sizeof(dims));
  if (!in || magic != kModelMagic) {
    return Status::InvalidArgument("not a DUST model file: " + path);
  }
  if (dims[0] != config_.feature_dim || dims[1] != config_.hidden_dim ||
      dims[2] != config_.embedding_dim ||
      dims[3] != static_cast<uint64_t>(config_.family)) {
    return Status::InvalidArgument("model shape mismatch: " + path);
  }
  uint64_t count = 0;
  in.read(reinterpret_cast<char*>(&count), sizeof(count));
  std::vector<float> params(count);
  in.read(reinterpret_cast<char*>(params.data()),
          static_cast<std::streamsize>(count * sizeof(float)));
  if (!in) return Status::IoError("truncated model file: " + path);
  LoadParams(params);
  return Status::Ok();
}

}  // namespace dust::nn
