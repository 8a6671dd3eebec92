#include "accel/kv_layout.h"

#include <algorithm>

#include "common/require.h"

namespace topick::accel {

KvLayout::KvLayout(const AccelConfig& config, std::uint64_t base_addr,
                   std::size_t num_tokens, int head_dim)
    : base_(base_addr),
      num_tokens_(num_tokens),
      granule_bytes_(config.dram.transaction_bytes),
      granules_per_chunk_(config.granules_per_chunk(head_dim)),
      granules_per_value_(config.granules_per_value(head_dim)),
      num_chunks_(config.quant.num_chunks()) {
  require(num_tokens > 0, "KvLayout: need at least one token");
  require(base_addr % static_cast<std::uint64_t>(granule_bytes_) == 0,
          "KvLayout: base address must be granule-aligned");
  granule_shift_ = mem::log2_pow2(granule_bytes_);
  channel_shift_ = mem::log2_pow2(config.dram.channels);
  bank_shift_ = mem::log2_pow2(config.dram.banks_per_channel);
  require(granule_shift_ >= 0 && channel_shift_ >= 0 && bank_shift_ >= 0,
          "KvLayout: granule, channel and bank counts must be powers of two");
  // Only the K planes interleave in time, so only they split the banks; V
  // streams alone in step 1 and gets every bank (linear mapping above the
  // K region).
  banks_per_plane_ = std::max(1, config.dram.banks_per_channel / num_chunks_);

  // The V plane starts above the K planes' span: every K plane's rows,
  // across all banks and channels.
  const auto bpp = static_cast<std::uint64_t>(banks_per_plane_);
  const std::uint64_t group_granules = bpp << channel_shift_;
  const std::uint64_t plane_granules =
      num_tokens_ * static_cast<std::uint64_t>(granules_per_chunk_);
  const std::uint64_t k_rows_per_bank =
      (plane_granules + group_granules - 1) / group_granules;
  k_span_granules_ = k_rows_per_bank << (bank_shift_ + channel_shift_);
}

std::uint64_t KvLayout::plane_addr(int plane, std::uint64_t index) const {
  // Decompose the within-plane index into (channel, bank-in-group, column,
  // row) and reassemble a global granule number whose bank field carries
  // the plane's bank group. Must be the inverse shape of Hbm::local_of:
  //   channel = g % channels; g' = g / channels;
  //   bank = g' % banks; column = (g' / banks) % columns; row = rest.
  // Channels and banks are powers of two; the bank group (5 banks at 3
  // chunks) is not, so that split stays a division.
  const auto bpp = static_cast<std::uint64_t>(banks_per_plane_);
  const std::uint64_t bank_mask = (std::uint64_t{1} << bank_shift_) - 1;

  const std::uint64_t channel =
      index & ((std::uint64_t{1} << channel_shift_) - 1);
  const std::uint64_t j = index >> channel_shift_;
  const std::uint64_t bank_in_group = j % bpp;
  const std::uint64_t k = j / bpp;
  const std::uint64_t bank =
      (static_cast<std::uint64_t>(plane) * bpp + bank_in_group) & bank_mask;

  const std::uint64_t g_prime = (k << bank_shift_) | bank;
  const std::uint64_t g = (g_prime << channel_shift_) | channel;
  return base_ + (g << granule_shift_);
}

std::uint64_t KvLayout::key_chunk_addr(std::size_t token, int chunk,
                                       int granule) const {
  require(token < num_tokens_, "KvLayout: token out of range");
  require(chunk >= 0 && chunk < num_chunks_, "KvLayout: chunk out of range");
  require(granule >= 0 && granule < granules_per_chunk_,
          "KvLayout: granule out of range");
  const std::uint64_t index =
      token * static_cast<std::uint64_t>(granules_per_chunk_) +
      static_cast<std::uint64_t>(granule);
  return plane_addr(chunk, index);
}

std::uint64_t KvLayout::value_addr(std::size_t token, int granule) const {
  require(token < num_tokens_, "KvLayout: token out of range");
  require(granule >= 0 && granule < granules_per_value_,
          "KvLayout: granule out of range");
  // Linear mapping in the address range above the (sparsely stretched) K
  // planes: V streaming uses all channels and banks.
  const std::uint64_t index =
      k_span_granules_ +
      token * static_cast<std::uint64_t>(granules_per_value_) +
      static_cast<std::uint64_t>(granule);
  return base_ + (index << granule_shift_);
}

std::uint64_t KvLayout::region_bytes() const {
  const std::uint64_t granules =
      num_tokens_ * (static_cast<std::uint64_t>(granules_per_chunk_) *
                         static_cast<std::uint64_t>(num_chunks_) +
                     static_cast<std::uint64_t>(granules_per_value_));
  return granules * static_cast<std::uint64_t>(granule_bytes_);
}

}  // namespace topick::accel
