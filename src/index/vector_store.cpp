#include "index/vector_store.hpp"

#include <cstdint>
#include <cstring>
#include <stdexcept>

#include "index/quantized.hpp"
#include "parallel/thread_pool.hpp"

namespace mcqa::index {

namespace {
std::unique_ptr<VectorIndex> make_index(IndexKind kind, std::size_t dim) {
  switch (kind) {
    case IndexKind::kFlat: return std::make_unique<FlatIndex>(dim);
    case IndexKind::kIvfPq: return std::make_unique<IvfPqIndex>(dim);
  }
  throw std::invalid_argument("unknown IndexKind");
}

IndexKind kind_from_name(std::string_view name) {
  if (name == "flat") return IndexKind::kFlat;
  if (name == "ivfpq") return IndexKind::kIvfPq;
  throw std::runtime_error("VectorStore::load: unknown index kind");
}
}  // namespace

VectorStore::VectorStore(const embed::Embedder& embedder, IndexKind kind)
    : embedder_(embedder), kind_(kind), index_(make_index(kind, embedder.dim())) {}

void VectorStore::add(std::string id, std::string text) {
  index_->add(embedder_.embed(text));
  ids_.push_back(std::move(id));
  texts_.push_back(std::move(text));
  built_ = false;
}

void VectorStore::add_batch(std::vector<std::string> ids,
                            std::vector<std::string> texts,
                            parallel::ThreadPool& pool) {
  if (ids.size() != texts.size()) {
    throw std::invalid_argument("VectorStore::add_batch: size mismatch");
  }
  const std::vector<embed::Vector> vectors = embedder_.embed_batch(texts, pool);
  index_->add_batch(vectors);
  ids_.reserve(ids_.size() + ids.size());
  texts_.reserve(texts_.size() + texts.size());
  for (auto& id : ids) ids_.push_back(std::move(id));
  for (auto& text : texts) texts_.push_back(std::move(text));
  built_ = false;
}

void VectorStore::add_precomputed(std::vector<std::string> ids,
                                  std::vector<std::string> texts,
                                  const std::vector<embed::Vector>& vectors) {
  if (ids.size() != texts.size() || ids.size() != vectors.size()) {
    throw std::invalid_argument("VectorStore::add_precomputed: size mismatch");
  }
  for (const auto& v : vectors) {
    if (v.size() != embedder_.dim()) {
      throw std::invalid_argument(
          "VectorStore::add_precomputed: dimension mismatch");
    }
  }
  index_->add_batch(vectors);
  ids_.reserve(ids_.size() + ids.size());
  texts_.reserve(texts_.size() + texts.size());
  for (auto& id : ids) ids_.push_back(std::move(id));
  for (auto& text : texts) texts_.push_back(std::move(text));
  built_ = false;
}

void VectorStore::build() {
  parallel::ThreadPool own(1);
  index_->build(own);
  built_ = true;
}

void VectorStore::build_delta(const VectorStore* donor,
                              double changed_fraction,
                              double retrain_threshold,
                              parallel::ThreadPool& pool) {
  if (kind_ == IndexKind::kIvfPq && donor != nullptr &&
      donor->kind() == IndexKind::kIvfPq && donor->built_ &&
      donor->size() > 0 && changed_fraction <= retrain_threshold) {
    const auto* src = static_cast<const IvfPqIndex*>(donor->index_.get());
    auto* dst = static_cast<IvfPqIndex*>(index_.get());
    if (src->dim() == dst->dim()) {
      dst->build_frozen(*src, pool);
      built_ = true;
      return;
    }
  }
  index_->build(pool);
  built_ = true;
}

embed::Vector VectorStore::row_vector(std::size_t row) const {
  if (const auto* flat = dynamic_cast<const FlatIndex*>(index_.get())) {
    return flat->vector(row);
  }
  return embedder_.embed(texts_.at(row));
}

namespace {

void put_u64(std::string& out, std::uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out.append(buf, 8);
}

std::uint64_t take_u64(std::string_view blob, std::size_t& pos) {
  if (pos + 8 > blob.size()) {
    throw std::runtime_error("VectorStore::load: truncated integer");
  }
  std::uint64_t v = 0;
  std::memcpy(&v, blob.data() + pos, 8);
  pos += 8;
  return v;
}

void put_str(std::string& out, std::string_view s) {
  put_u64(out, s.size());
  out.append(s);
}

std::string take_str(std::string_view blob, std::size_t& pos) {
  const std::size_t n = take_u64(blob, pos);
  if (n > blob.size() - pos) {
    throw std::runtime_error("VectorStore::load: truncated string");
  }
  std::string s(blob.substr(pos, n));
  pos += n;
  return s;
}

}  // namespace

std::string VectorStore::save() const {
  if (!built_) {
    throw std::logic_error("VectorStore::save: build() the store first");
  }
  // vstore2: the index blob is zero-padded to an 8-byte offset from the
  // store start, so a whole mapped store file keeps the index payload
  // blocks naturally aligned for view loads.
  std::string out = "vstore2\n";
  put_str(out, index_kind_name(kind_));
  put_u64(out, ids_.size());
  for (std::size_t i = 0; i < ids_.size(); ++i) {
    put_str(out, ids_[i]);
    put_str(out, texts_[i]);
  }
  const std::string index_blob = index_->save();
  put_u64(out, index_blob.size());
  while (out.size() % 8 != 0) out.push_back('\0');
  out.append(index_blob);
  return out;
}

VectorStore VectorStore::load_parsed(const embed::Embedder& embedder,
                                     std::string_view blob, bool view) {
  constexpr std::string_view kMagic = "vstore2\n";
  if (blob.substr(0, kMagic.size()) != kMagic) {
    throw std::runtime_error("VectorStore::load: bad magic");
  }
  std::size_t pos = kMagic.size();
  const IndexKind kind = kind_from_name(take_str(blob, pos));

  VectorStore store(embedder, kind);
  const std::size_t n = take_u64(blob, pos);
  // Each row carries two 8-byte length fields, so a count the remaining
  // bytes cannot hold is hostile; reject it before reserving for it.
  if (n > (blob.size() - pos) / 16) {
    throw std::runtime_error("VectorStore::load: implausible row count");
  }
  store.ids_.reserve(n);
  store.texts_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    store.ids_.push_back(take_str(blob, pos));
    store.texts_.push_back(take_str(blob, pos));
  }
  const std::size_t blob_len = take_u64(blob, pos);
  // Loader-side pad skip: recomputed from the stream position, never
  // stored (mirrors the index blob formats).
  while (pos % 8 != 0) {
    if (pos >= blob.size()) {
      throw std::runtime_error("VectorStore::load: truncated pad");
    }
    ++pos;
  }
  if (blob_len > blob.size() - pos) {
    throw std::runtime_error("VectorStore::load: truncated index blob");
  }
  const std::string_view index_blob = blob.substr(pos, blob_len);
  store.index_ = view ? load_index_view(index_blob) : load_index(index_blob);
  if (store.index_->kind() != kind || store.index_->size() != n) {
    throw std::runtime_error("VectorStore::load: index/store mismatch");
  }
  store.built_ = true;
  return store;
}

VectorStore VectorStore::load(const embed::Embedder& embedder,
                              std::string_view blob) {
  return load_parsed(embedder, blob, /*view=*/false);
}

VectorStore VectorStore::open_mmap(const embed::Embedder& embedder,
                                   const std::string& path) {
  auto file = std::make_shared<MappedFile>(MappedFile::open(path));
  VectorStore store = load_parsed(embedder, file->bytes(), /*view=*/true);
  store.backing_ = std::move(file);  // outlives the index's views
  return store;
}

std::vector<Hit> VectorStore::hits_for(
    const std::vector<SearchResult>& results) const {
  std::vector<Hit> hits;
  hits.reserve(results.size());
  for (const auto& r : results) {
    hits.push_back(Hit{ids_[r.row], texts_[r.row], r.score});
  }
  return hits;
}

std::vector<Hit> VectorStore::query(std::string_view text,
                                    std::size_t k) const {
  return query_vector(embedder_.embed(text), k);
}

std::vector<Hit> VectorStore::query_vector(const embed::Vector& v,
                                           std::size_t k) const {
  if (!built_) {
    throw std::logic_error("VectorStore::query before build()");
  }
  return hits_for(index_->search(v, k));
}

std::vector<std::vector<Hit>> VectorStore::query_batch(
    const std::vector<std::string>& texts, std::size_t k) const {
  if (!built_) {
    throw std::logic_error("VectorStore::query_batch before build()");
  }
  std::vector<embed::Vector> queries;
  queries.reserve(texts.size());
  for (const auto& text : texts) queries.push_back(embedder_.embed(text));
  const auto tiled = index_->search_tiled(queries, k);
  std::vector<std::vector<Hit>> out;
  out.reserve(tiled.size());
  for (const auto& results : tiled) out.push_back(hits_for(results));
  return out;
}

}  // namespace mcqa::index
