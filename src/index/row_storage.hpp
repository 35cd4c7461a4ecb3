#pragma once
// Contiguous row-major storage shared by the vector indexes.
//
// TypedRows flattens all rows into a single element buffer — no heap
// allocation or pointer chase per row — so the blocked kernels stream
// through memory, and save()/load() can move the whole payload with
// one memcpy.
//
// Two backing modes:
//   * resident — the storage owns a std::vector<T> (the default; all
//     mutating operations work).
//   * view — the storage borrows a pointer into caller-owned bytes
//     (an mmap'd index blob).  Views are read-only snapshots: every
//     mutating call throws, and the caller must keep the backing bytes
//     (the MappedFile) alive for the lifetime of the view — see
//     DESIGN.md §2 "quantized tier" for the lifetime rules.
//
// Instantiations: RowStorage (float rows: IVF-PQ centroids and
// codebooks, k-means training data), Fp16Rows (fp16-at-rest rows:
// FlatIndex payload and the quantized tier's exact-rerank source),
// CodeRows (uint8 codes of the IVF-PQ tier).

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "embed/embedder.hpp"
#include "util/fp16.hpp"

namespace mcqa::index {

template <typename T>
class TypedRows {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  TypedRows() = default;
  explicit TypedRows(std::size_t dim) : dim_(dim) {}

  /// Borrow `rows` rows of `dim` elements from caller-owned memory
  /// (e.g. an mmap'd blob).  `base` must stay valid and suitably
  /// aligned for T for the lifetime of the view.
  static TypedRows view(const T* base, std::size_t rows, std::size_t dim) {
    TypedRows out(dim);
    out.view_ = base;
    out.view_rows_ = rows;
    return out;
  }

  bool is_view() const { return view_ != nullptr; }

  std::size_t dim() const { return dim_; }
  std::size_t size() const {
    if (is_view()) return view_rows_;
    return dim_ == 0 ? 0 : owned_.size() / dim_;
  }
  bool empty() const { return size() == 0; }

  void reserve(std::size_t rows) {
    require_resident("reserve");
    owned_.reserve(rows * dim_);
  }

  /// Append a row from a raw pointer (dim() elements).
  void add_row(const T* p) {
    require_resident("add_row");
    owned_.insert(owned_.end(), p, p + dim_);
  }

  /// Append a single element (callers append exactly dim() per row).
  void push_value(T v) {
    require_resident("push_value");
    owned_.push_back(v);
  }

  const T* row(std::size_t i) const { return raw() + i * dim_; }

  /// Flat payload, row-major — serialization and kernels read this
  /// directly.
  const T* raw() const { return is_view() ? view_ : owned_.data(); }
  std::size_t value_count() const { return size() * dim_; }

  T* mutable_raw() {
    require_resident("mutable_raw");
    return owned_.data();
  }

  void clear() {
    owned_.clear();
    view_ = nullptr;
    view_rows_ = 0;
  }

  void resize_rows(std::size_t rows) {
    require_resident("resize_rows");
    owned_.resize(rows * dim_);
  }

  // --- float-row conveniences (embedding vectors) ----------------------------

  void set_row(std::size_t i, const embed::Vector& v)
    requires std::same_as<T, float>
  {
    if (v.size() != dim_) {
      throw std::invalid_argument("TypedRows::set_row: dim");
    }
    require_resident("set_row");
    std::memcpy(owned_.data() + i * dim_, v.data(), dim_ * sizeof(float));
  }

 private:
  void require_resident(const char* op) const {
    if (is_view()) {
      throw std::logic_error(std::string("TypedRows::") + op +
                             ": storage is an mmap-backed read-only view");
    }
  }

  std::size_t dim_ = 0;
  std::vector<T> owned_;
  const T* view_ = nullptr;
  std::size_t view_rows_ = 0;
};

using RowStorage = TypedRows<float>;
using Fp16Rows = TypedRows<util::fp16_t>;
using CodeRows = TypedRows<std::uint8_t>;

}  // namespace mcqa::index
