#include "fixedpoint/chunks.h"

#include <algorithm>

#include "common/require.h"
#include "fixedpoint/dispatch.h"

namespace topick::fx {

namespace {

// Bit position (from LSB) where chunk `chunk_idx` starts, and its width.
struct ChunkSpan {
  int low_bit;
  int width;
};

ChunkSpan chunk_span(int chunk_idx, const QuantParams& params) {
  require(chunk_idx >= 0 && chunk_idx < params.num_chunks(),
          "chunk index out of range");
  const int consumed = chunk_idx * params.chunk_bits;
  const int width = std::min(params.chunk_bits, params.total_bits - consumed);
  const int low_bit = params.total_bits - consumed - width;
  return {low_bit, width};
}

}  // namespace

std::uint16_t chunk_bits_of(std::int16_t value, int chunk_idx,
                            const QuantParams& params) {
  const auto span = chunk_span(chunk_idx, params);
  const auto raw = static_cast<std::uint16_t>(value) &
                   static_cast<std::uint16_t>((1u << params.total_bits) - 1u);
  return static_cast<std::uint16_t>((raw >> span.low_bit) &
                                    ((1u << span.width) - 1u));
}

int unknown_bits(int chunks_known, const QuantParams& params) {
  require(chunks_known >= 0 && chunks_known <= params.num_chunks(),
          "chunks_known out of range");
  const int known = std::min(chunks_known * params.chunk_bits, params.total_bits);
  return params.total_bits - known;
}

namespace {

// The mask partial_value applies: clears the unknown low bits (all ones when
// every chunk is known). With no chunks known the sign bit is unknown too,
// so there is no "known prefix" — the mask is zero and the level-0 bracket
// spans the full representable range (see MarginTable). Masking the
// sign-extended int16 with the low-bit rule here would leak copies of the
// sign bit into the partial.
std::int16_t known_mask(int chunks_known, const QuantParams& params) {
  const int unknown = unknown_bits(chunks_known, params);
  if (chunks_known == 0) return 0;
  return static_cast<std::int16_t>(~((1 << unknown) - 1));
}

}  // namespace

std::int32_t residual_weight(int chunks_known, const QuantParams& params) {
  return (1 << unknown_bits(chunks_known, params)) - 1;
}

std::int16_t partial_value(std::int16_t value, int chunks_known,
                           const QuantParams& params) {
  return static_cast<std::int16_t>(value & known_mask(chunks_known, params));
}

void chunk_plane_row(const std::int16_t* k, std::size_t n, int chunk_idx,
                     const QuantParams& params, std::int16_t* out) {
  const std::int16_t hi = known_mask(chunk_idx + 1, params);
  const std::int16_t lo = known_mask(chunk_idx, params);
  for (std::size_t d = 0; d < n; ++d) {
    out[d] = static_cast<std::int16_t>((k[d] & hi) - (k[d] & lo));
  }
}

std::int16_t assemble(const std::vector<std::uint16_t>& chunks,
                      const QuantParams& params) {
  require(static_cast<int>(chunks.size()) == params.num_chunks(),
          "assemble: wrong number of chunks");
  std::uint16_t raw = 0;
  for (int b = 0; b < params.num_chunks(); ++b) {
    const auto span = chunk_span(b, params);
    raw = static_cast<std::uint16_t>(
        raw | ((chunks[static_cast<std::size_t>(b)] & ((1u << span.width) - 1u))
               << span.low_bit));
  }
  // Sign-extend from total_bits to 16.
  const std::uint16_t sign_bit = 1u << (params.total_bits - 1);
  if (raw & sign_bit) {
    raw = static_cast<std::uint16_t>(raw | ~((1u << params.total_bits) - 1u));
  }
  return static_cast<std::int16_t>(raw);
}

std::int64_t partial_dot_i64(const QuantizedVector& q, const QuantizedVector& k,
                             int chunks_known) {
  require(q.values.size() == k.values.size(), "partial_dot: length mismatch");
  std::int64_t acc = 0;
  for (std::size_t d = 0; d < q.values.size(); ++d) {
    acc += static_cast<std::int64_t>(q.values[d]) *
           partial_value(k.values[d], chunks_known, k.params);
  }
  return acc;
}

std::int64_t chunk_dot_delta_i64(const QuantizedVector& q,
                                 const QuantizedVector& k, int chunk_idx) {
  require(q.values.size() == k.values.size(), "chunk_dot_delta: length mismatch");
  // The chunk's plane (see chunk_plane_row) is formed a block at a time on
  // the stack, and each block goes through the dispatched row_dot_i64.
  constexpr std::size_t kBlock = 64;
  std::int16_t delta[kBlock];
  const std::int16_t* qv = q.values.data();
  const std::int16_t* kv = k.values.data();
  const std::size_t n = k.values.size();
  std::int64_t acc = 0;
  for (std::size_t base = 0; base < n; base += kBlock) {
    const std::size_t m = std::min(kBlock, n - base);
    chunk_plane_row(kv + base, m, chunk_idx, k.params, delta);
    acc += row_dot_i64(qv + base, delta, m);
  }
  return acc;
}

}  // namespace topick::fx
