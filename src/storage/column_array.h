#ifndef APLUS_STORAGE_COLUMN_ARRAY_H_
#define APLUS_STORAGE_COLUMN_ARRAY_H_

#include <cstddef>
#include <utility>
#include <vector>

namespace aplus {

// A fixed-width column that either owns its elements (a growable vector:
// the in-memory engine) or views read-only elements of a mapped file (a
// sealed segment, storage/segment.h). Reads go through one pointer in
// both modes, so no accessor branches on the mode. Only an owning column
// grows or is written; a viewing one is fixed when it is attached.
//
// The read pointer is rewritten only when growth moved the elements, so
// an append within reserved capacity never writes memory that lock-free
// readers load.
template <typename T>
class ColumnArray {
 public:
  ColumnArray() = default;
  ColumnArray(const ColumnArray&) = delete;
  ColumnArray& operator=(const ColumnArray&) = delete;
  ColumnArray(ColumnArray&& other) noexcept
      : owned_(std::move(other.owned_)), data_(std::exchange(other.data_, nullptr)) {}
  ColumnArray& operator=(ColumnArray&& other) noexcept {
    owned_ = std::move(other.owned_);
    data_ = std::exchange(other.data_, nullptr);
    return *this;
  }

  const T& operator[](size_t i) const { return data_[i]; }
  const T* data() const { return data_; }

  // Owning mode only.
  void Set(size_t i, T v) { owned_[i] = v; }
  void PushBack(T v) {
    owned_.push_back(v);
    Repoint();
  }
  void Resize(size_t n, T fill) {
    owned_.resize(n, fill);
    Repoint();
  }
  void Reserve(size_t n) {
    owned_.reserve(n);
    Repoint();
  }

  // Switches to viewing `data`, which must outlive the column; owned
  // elements are freed.
  void Attach(const T* data) {
    std::vector<T>().swap(owned_);
    data_ = data;
  }

 private:
  void Repoint() {
    if (data_ != owned_.data()) data_ = owned_.data();
  }

  std::vector<T> owned_;
  const T* data_ = nullptr;
};

}  // namespace aplus

#endif  // APLUS_STORAGE_COLUMN_ARRAY_H_
