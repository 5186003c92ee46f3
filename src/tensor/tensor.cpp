#include "tensor/tensor.h"

#include <cassert>
#include <cmath>
#include <stdexcept>

namespace cachegen {

Tensor::Tensor(size_t rows, size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0f) {}

Tensor::Tensor(size_t rows, size_t cols, std::vector<float> data)
    : rows_(rows), cols_(cols), data_(std::move(data)) {
  if (data_.size() != rows_ * cols_) {
    throw std::invalid_argument("Tensor: data size does not match shape");
  }
}

Tensor Tensor::SliceRows(size_t begin, size_t end) const {
  if (begin > end || end > rows_) {
    throw std::out_of_range("Tensor::SliceRows: bad range");
  }
  Tensor out(end - begin, cols_);
  std::copy(data_.begin() + static_cast<ptrdiff_t>(begin * cols_),
            data_.begin() + static_cast<ptrdiff_t>(end * cols_), out.data_.begin());
  return out;
}

void Tensor::Reshape(size_t rows, size_t cols) {
  data_.resize(rows * cols);
  rows_ = rows;
  cols_ = cols;
}

double Tensor::Mse(const Tensor& other) const {
  if (!SameShape(other)) {
    throw std::invalid_argument("Tensor::Mse: shape mismatch");
  }
  if (data_.empty()) return 0.0;
  double s = 0.0;
  for (size_t i = 0; i < data_.size(); ++i) {
    const double d = static_cast<double>(data_[i]) - static_cast<double>(other.data_[i]);
    s += d * d;
  }
  return s / static_cast<double>(data_.size());
}

double Tensor::MeanAbs() const {
  if (data_.empty()) return 0.0;
  double s = 0.0;
  for (float x : data_) s += std::fabs(static_cast<double>(x));
  return s / static_cast<double>(data_.size());
}

}  // namespace cachegen
