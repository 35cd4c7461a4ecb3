// Serialization for the vector indexes.  Length-prefixed binary
// sections after a version-stamped magic line; payloads are memcpy'd
// (indexes are a cache, not an interchange format — the canonical
// artifacts are the JSON records).
//
// Both formats (flatidx2, ivfpqidx1) zero-pad every bulk payload block
// to an 8-byte offset from the blob start.  The pad is
// recomputed from the stream position on both sides — nothing variable
// is stored — and buys view-mode loads: when the blob is a whole mapped
// file (page-aligned base), every float/fp16/u8 payload is naturally
// aligned, so load_index_view() wraps the mapped bytes in TypedRows
// views instead of copying.  A misaligned buffer silently degrades to a
// copy — view mode is an optimization, never a correctness knob.
//
// Anything else — unknown magic, truncated payload, out-of-range
// structure or PQ codes, IVF-PQ lists that do not hold each row exactly
// once — throws from load_index() and returns nullptr
// from try_load_index(), which the checkpoint restore path treats as a
// corrupt-blob miss and rebuilds from scratch.  Older formats need no
// reader: every checkpoint key chains core::code_fingerprint(), so a
// rebuilt binary never reads a blob an older one wrote.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "index/quantized.hpp"
#include "index/vector_index.hpp"

namespace mcqa::index {

namespace {

constexpr std::size_t kMaxDim = 1u << 20;
constexpr std::size_t kMaxRows = 1ull << 34;

void put_u64(std::string& out, std::uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out.append(buf, 8);
}

std::uint64_t take_u64(std::string_view blob, std::size_t& pos) {
  if (pos + 8 > blob.size()) {
    throw std::runtime_error("index load: truncated integer");
  }
  std::uint64_t v = 0;
  std::memcpy(&v, blob.data() + pos, 8);
  pos += 8;
  return v;
}

/// Zero-pad to the next 8-byte offset from the blob start.
void pad8(std::string& out) {
  while (out.size() % 8 != 0) out.push_back('\0');
}

/// Skip the loader-side pad; the pad length is recomputed from `pos`,
/// never stored.
void align8(std::string_view blob, std::size_t& pos) {
  while (pos % 8 != 0) {
    if (pos >= blob.size()) {
      throw std::runtime_error("index load: truncated pad");
    }
    ++pos;
  }
}

/// Append a bulk payload block: pad to 8, then the raw bytes.
void put_bytes(std::string& out, const void* p, std::size_t bytes) {
  pad8(out);
  const std::size_t at = out.size();
  out.resize(at + bytes);
  if (bytes > 0) std::memcpy(out.data() + at, p, bytes);
}

/// Align to 8 and hand back a pointer to `bytes` payload bytes.
const char* take_bytes(std::string_view blob, std::size_t& pos,
                       std::size_t bytes) {
  align8(blob, pos);
  if (pos + bytes > blob.size() || pos + bytes < pos) {
    throw std::runtime_error("index load: truncated payload");
  }
  const char* p = blob.data() + pos;
  pos += bytes;
  return p;
}

template <typename T>
void put_block(std::string& out, const TypedRows<T>& rows) {
  put_bytes(out, rows.raw(), rows.value_count() * sizeof(T));
}

/// Read a rows*dim typed block.  In view mode the returned storage
/// borrows the blob bytes when they are aligned for T (always true for
/// a whole mapped file); otherwise it falls back to a resident copy.
template <typename T>
TypedRows<T> take_block(std::string_view blob, std::size_t& pos,
                        std::size_t rows, std::size_t dim, bool view) {
  if (rows > kMaxRows || dim > kMaxDim) {
    throw std::runtime_error("index load: implausible block shape");
  }
  const std::size_t bytes = rows * dim * sizeof(T);
  const char* p = take_bytes(blob, pos, bytes);
  if (view && reinterpret_cast<std::uintptr_t>(p) % alignof(T) == 0) {
    return TypedRows<T>::view(reinterpret_cast<const T*>(p), rows, dim);
  }
  TypedRows<T> out(dim);
  out.resize_rows(rows);
  if (bytes > 0) std::memcpy(out.mutable_raw(), p, bytes);
  return out;
}

bool has_magic(std::string_view blob, std::string_view magic) {
  return blob.substr(0, magic.size()) == magic;
}

std::size_t checked_dim(std::uint64_t dim) {
  if (dim == 0 || dim > kMaxDim) {
    throw std::runtime_error("index load: bad dim");
  }
  return static_cast<std::size_t>(dim);
}

}  // namespace

// All index classes befriend IndexIo, so the per-kind readers live here
// as statics with access to the private fields.
struct IndexIo {
  // --- Flat ------------------------------------------------------------------

  static std::string save_flat(const FlatIndex& idx) {
    std::string out = "flatidx2\n";
    put_u64(out, idx.dim_);
    put_u64(out, idx.data_.size());
    put_block(out, idx.data_);
    return out;
  }

  static FlatIndex load_flat(std::string_view blob, bool view) {
    constexpr std::string_view kMagic = "flatidx2\n";
    if (!has_magic(blob, kMagic)) {
      throw std::runtime_error("FlatIndex::load: bad magic");
    }
    std::size_t pos = kMagic.size();
    const std::size_t dim = checked_dim(take_u64(blob, pos));
    const std::size_t rows = take_u64(blob, pos);
    FlatIndex idx(dim);
    idx.data_ = take_block<util::fp16_t>(blob, pos, rows, dim, view);
    idx.derive_codes();
    return idx;
  }

  // --- IVF-PQ ----------------------------------------------------------------

  static std::string save_ivfpq(const IvfPqIndex& idx) {
    if (!idx.built_) {
      throw std::logic_error("IvfPqIndex::save: build() the index first");
    }
    std::string out = "ivfpqidx1\n";
    put_u64(out, idx.dim_);
    put_u64(out, idx.m_);
    put_u64(out, idx.ksub_);
    put_u64(out, idx.config_.nprobe);
    put_u64(out, idx.config_.oversample);
    put_u64(out, idx.config_.min_candidates);
    put_u64(out, idx.rows_.size());
    put_u64(out, idx.centroids_.size());
    put_block(out, idx.centroids_);
    put_block(out, idx.codebooks_);
    put_block(out, idx.codes_);
    put_block(out, idx.rows_);
    for (const auto& list : idx.lists_) {
      put_u64(out, list.size());
      for (const std::uint32_t row : list) put_u64(out, row);
    }
    return out;
  }

  static IvfPqIndex load_ivfpq(std::string_view blob, bool view) {
    constexpr std::string_view kMagic = "ivfpqidx1\n";
    if (!has_magic(blob, kMagic)) {
      throw std::runtime_error("IvfPqIndex::load: bad magic");
    }
    std::size_t pos = kMagic.size();
    const std::size_t dim = checked_dim(take_u64(blob, pos));
    const std::size_t m = take_u64(blob, pos);
    const std::size_t ksub = take_u64(blob, pos);
    if (m == 0 || dim % m != 0 || ksub > 256) {
      throw std::runtime_error("IvfPqIndex::load: bad quantizer shape");
    }
    IvfPqConfig cfg;
    cfg.m = m;
    cfg.ksub = ksub;
    cfg.nprobe = take_u64(blob, pos);
    cfg.oversample = take_u64(blob, pos);
    cfg.min_candidates = take_u64(blob, pos);
    const std::size_t n = take_u64(blob, pos);
    const std::size_t nlist = take_u64(blob, pos);
    IvfPqIndex idx(dim, cfg);
    idx.m_ = m;
    idx.ksub_ = ksub;
    idx.centroids_ = take_block<float>(blob, pos, nlist, dim, view);
    idx.codebooks_ = take_block<float>(blob, pos, m * ksub, dim / m, view);
    idx.codes_ = take_block<std::uint8_t>(blob, pos, n, m, view);
    // Search indexes each row's ADC table with its code bytes, so a
    // code >= ksub would read past the table.  At ksub 256 every byte
    // is a valid code; below it, one pass over the (possibly mapped)
    // code block, which copies nothing.
    if (ksub < 256) {
      const std::uint8_t* codes = idx.codes_.raw();
      if (std::any_of(codes, codes + idx.codes_.value_count(),
                      [ksub](std::uint8_t c) { return c >= ksub; })) {
        throw std::runtime_error("IvfPqIndex::load: code out of range");
      }
    }
    idx.rows_ = take_block<util::fp16_t>(blob, pos, n, dim, view);
    // The lists must partition the rows: search_block's rerank gives
    // each row one slot per querying tile member, so a row listed twice
    // would overrun it.  One pass over a row bitmap (n is bounded by
    // the code block above).
    std::vector<bool> listed(n, false);
    std::size_t listed_count = 0;
    idx.lists_.resize(nlist);
    for (std::size_t c = 0; c < nlist; ++c) {
      const std::size_t len = take_u64(blob, pos);
      if (len > n - listed_count) {
        throw std::runtime_error("IvfPqIndex::load: bad list");
      }
      idx.lists_[c].reserve(len);
      for (std::size_t i = 0; i < len; ++i) {
        const std::uint64_t row = take_u64(blob, pos);
        if (row >= n || listed[row]) {
          throw std::runtime_error("IvfPqIndex::load: bad row");
        }
        listed[row] = true;
        idx.lists_[c].push_back(static_cast<std::uint32_t>(row));
      }
      listed_count += len;
    }
    if (listed_count != n) {
      throw std::runtime_error("IvfPqIndex::load: unlisted row");
    }
    idx.built_ = true;
    return idx;
  }
};

// --- member save/load entry points -------------------------------------------

std::string FlatIndex::save() const { return IndexIo::save_flat(*this); }
FlatIndex FlatIndex::load(std::string_view blob) {
  return IndexIo::load_flat(blob, /*view=*/false);
}
FlatIndex FlatIndex::load_view(std::string_view blob) {
  return IndexIo::load_flat(blob, /*view=*/true);
}

std::string IvfPqIndex::save() const { return IndexIo::save_ivfpq(*this); }
IvfPqIndex IvfPqIndex::load(std::string_view blob) {
  return IndexIo::load_ivfpq(blob, /*view=*/false);
}
IvfPqIndex IvfPqIndex::load_view(std::string_view blob) {
  return IndexIo::load_ivfpq(blob, /*view=*/true);
}

// --- dispatchers -------------------------------------------------------------

namespace {

std::unique_ptr<VectorIndex> load_dispatch(std::string_view blob, bool view) {
  if (has_magic(blob, "flatidx2\n")) {
    return std::make_unique<FlatIndex>(IndexIo::load_flat(blob, view));
  }
  if (has_magic(blob, "ivfpqidx1\n")) {
    return std::make_unique<IvfPqIndex>(IndexIo::load_ivfpq(blob, view));
  }
  throw std::runtime_error("load_index: unknown index magic");
}

}  // namespace

std::unique_ptr<VectorIndex> load_index(std::string_view blob) {
  return load_dispatch(blob, /*view=*/false);
}

std::unique_ptr<VectorIndex> load_index_view(std::string_view blob) {
  return load_dispatch(blob, /*view=*/true);
}

std::unique_ptr<VectorIndex> try_load_index(std::string_view blob) noexcept {
  try {
    return load_dispatch(blob, /*view=*/false);
  } catch (...) {
    return nullptr;
  }
}

MappedIndex open_index_mmap(const std::string& path) {
  auto file = std::make_shared<MappedFile>(MappedFile::open(path));
  auto index = load_index_view(file->bytes());
  return MappedIndex{std::move(file), std::move(index)};
}

}  // namespace mcqa::index
