#include "serve/registry.h"

#include <utility>

namespace cmp {

namespace {

PredictOptions ServingOptions() {
  PredictOptions opts;
  opts.want_probs = true;
  // Micro-batches are small; a modest block keeps ParallelFor from
  // slicing them below useful granularity while still letting a large
  // `batch` request fan out across the pool.
  opts.block_size = 512;
  return opts;
}

}  // namespace

ServedModel::ServedModel(std::string name, uint64_t version,
                         std::string source_path, CompiledModel model,
                         ThreadPool* pool)
    : name_(std::move(name)),
      version_(version),
      source_path_(std::move(source_path)),
      model_(std::move(model)),
      predictor_(model_.trees, VoteKind::kAverageProb, ServingOptions(),
                 pool) {}

BatchResult ServedModel::PredictColumns(
    const double* const* numeric_cols, const int32_t* const* categorical_cols,
    int64_t n) const {
  return predictor_.PredictColumns(numeric_cols, categorical_cols, n);
}

uint64_t ModelRegistry::Publish(const std::string& name, CompiledModel model,
                                const std::string& source_path,
                                std::string* error) {
  if (model.empty()) {
    if (error != nullptr) *error = "model has no trees";
    return 0;
  }
  // Build the new ServedModel (predictor construction included) outside
  // the lock; the critical section is just two map writes.
  std::unique_lock<std::mutex> lock(mu_);
  const uint64_t version = ++next_version_[name];
  lock.unlock();
  auto served = std::make_shared<const ServedModel>(
      name, version, source_path, std::move(model), pool_);
  lock.lock();
  models_[name] = std::move(served);
  return version;
}

uint64_t ModelRegistry::PublishFromFile(const std::string& name,
                                        const std::string& path,
                                        std::string* error) {
  CompiledModel model;
  if (!LoadCompiledModel(path, &model, error)) return 0;
  return Publish(name, std::move(model), path, error);
}

std::shared_ptr<const ServedModel> ModelRegistry::Get(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = models_.find(name);
  return it == models_.end() ? nullptr : it->second;
}

std::vector<std::shared_ptr<const ServedModel>> ModelRegistry::List() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::shared_ptr<const ServedModel>> out;
  out.reserve(models_.size());
  for (const auto& [name, served] : models_) out.push_back(served);
  return out;
}

int ModelRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(models_.size());
}

}  // namespace cmp
