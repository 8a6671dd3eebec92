// Power-of-two ring buffer for the channel's request queue and in-flight
// FIFO: O(1) push at the back and pop at the front, no allocation once the
// capacity is reached, and an erase that shifts only the entries in front
// of the erased one (FR-FCFS mostly picks near the front).
#pragma once

#include <cstddef>
#include <vector>

namespace topick::mem {

template <typename T>
class Ring {
 public:
  // Grows the capacity to the next power of two >= n.
  void reserve(std::size_t n) {
    std::size_t cap = 8;
    while (cap < n) cap *= 2;
    if (cap > buf_.size()) regrow(cap);
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  T& operator[](std::size_t i) { return buf_[(head_ + i) & mask_]; }
  const T& operator[](std::size_t i) const { return buf_[(head_ + i) & mask_]; }
  const T& front() const { return buf_[head_]; }

  void push_back(const T& value) {
    if (size_ == buf_.size()) regrow(buf_.empty() ? 8 : 2 * buf_.size());
    buf_[(head_ + size_) & mask_] = value;
    ++size_;
  }
  void pop_front() {
    head_ = (head_ + 1) & mask_;
    --size_;
  }
  // Removes entry i, keeping the order of the rest.
  void erase(std::size_t i) {
    for (; i > 0; --i) (*this)[i] = (*this)[i - 1];
    pop_front();
  }

 private:
  void regrow(std::size_t cap) {
    std::vector<T> next(cap);
    for (std::size_t i = 0; i < size_; ++i) next[i] = (*this)[i];
    buf_.swap(next);
    head_ = 0;
    mask_ = cap - 1;
  }

  std::vector<T> buf_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
};

}  // namespace topick::mem
