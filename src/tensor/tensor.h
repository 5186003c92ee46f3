// Dense row-major 2-D float tensor: the unit of storage for one layer's K or
// V cache, shaped (tokens x channels). Kept deliberately small: CacheGen's
// codec treats KV caches as plain numeric arrays with known strides, so the
// substrate only needs indexing, slicing along the token dimension, and
// reshaping in place (to reassemble a cache by decoding its chunks into one
// reused buffer).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace cachegen {

class Tensor {
 public:
  Tensor() = default;
  Tensor(size_t rows, size_t cols);
  Tensor(size_t rows, size_t cols, std::vector<float> data);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float& At(size_t r, size_t c) { return data_[r * cols_ + c]; }
  float At(size_t r, size_t c) const { return data_[r * cols_ + c]; }

  std::span<float> Row(size_t r) { return {data_.data() + r * cols_, cols_}; }
  std::span<const float> Row(size_t r) const { return {data_.data() + r * cols_, cols_}; }

  std::span<float> Data() { return data_; }
  std::span<const float> Data() const { return data_; }

  // Copy of rows [begin, end).
  Tensor SliceRows(size_t begin, size_t end) const;

  // Change the shape in place, keeping the allocation: a buffer reshaped
  // to no more elements than it ever held allocates nothing. Elements keep
  // their flat positions up to the new size, so callers overwrite every row
  // they read; elements past the old size start at zero.
  void Reshape(size_t rows, size_t cols);

  bool SameShape(const Tensor& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  // Mean squared error against another tensor of identical shape.
  double Mse(const Tensor& other) const;

  // Mean |x| of all elements (used by distribution studies).
  double MeanAbs() const;

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<float> data_;
};

}  // namespace cachegen
