#include "stamp/genome/genome.hpp"

#include <algorithm>

#include "stm/stm.hpp"
#include "support/random.hpp"

namespace cstm::stamp {

void GenomeApp::setup(const AppParams& params) {
  params_ = params;
  gene_length_ = static_cast<std::size_t>(8192 * params.scale);
  if (gene_length_ < 256) gene_length_ = 256;
  num_segments_ = gene_length_ * 4;  // 4x coverage

  Xoshiro256 rng(params.seed);
  gene_.resize(gene_length_);
  for (auto& b : gene_) b = static_cast<std::uint8_t>(rng.below(4));

  // verify()'s ground truth is the number of distinct segment values.
  // Segments that start at one position are equal, so only the first
  // segment at each start is kept for counting: sorting those (at most one
  // per gene position) costs less than hashing or sorting every segment.
  std::vector<std::uint8_t> start_seen(gene_length_, 0);
  std::vector<std::uint64_t> windows;
  segments_.resize(num_segments_);
  for (auto& s : segments_) {
    const std::size_t start = rng.below(gene_length_ - kSegmentLength);
    std::uint64_t packed = 0;
    for (int i = 0; i < kSegmentLength; ++i) {
      packed = (packed << 2) | gene_[start + static_cast<std::size_t>(i)];
    }
    // Tag with the packed value only (identical windows dedup together).
    s = packed;
    if (start_seen[start] == 0) {
      start_seen[start] = 1;
      windows.push_back(packed);
    }
  }
  std::sort(windows.begin(), windows.end());
  reference_unique_ = static_cast<std::size_t>(
      std::unique(windows.begin(), windows.end()) - windows.begin());

  unique_ = std::make_unique<TxHashtable<std::uint64_t, std::uint64_t>>(
      num_segments_ / 2);
  claimed_ = std::make_unique<TxBitmap>(num_segments_);
  matched_.poke(0);
}

void GenomeApp::worker(int tid) {
  const int threads = params_.threads;
  const std::size_t chunk = (num_segments_ + threads - 1) / threads;
  const std::size_t begin = static_cast<std::size_t>(tid) * chunk;
  const std::size_t end = std::min(num_segments_, begin + chunk);

  // Phase 1: deduplicate this thread's segments into the shared table.
  // Insert allocates chain nodes inside the transaction (captured inits).
  for (std::size_t i = begin; i < end; ++i) {
    const std::uint64_t seg = segments_[i];
    atomic([&](Tx& tx) { unique_->insert(tx, seg, 1); });
  }

  // Phase 2: claim each sampled position exactly once; every claimed
  // position's segment must already be in the unique table (it was inserted
  // by phase 1 of some thread — threads synchronize through the claims:
  // a position is only claimable after its own phase-1 insert, which this
  // thread performed above).
  std::uint64_t local_matches = 0;
  for (std::size_t i = begin; i < end; ++i) {
    const std::uint64_t seg = segments_[i];
    atomic([&](Tx& tx) {
      if (!claimed_->set(tx, i)) return;   // someone already claimed it
      std::uint64_t count = 0;
      if (unique_->find(tx, seg, &count)) {
        unique_->put(tx, seg, count + 1);  // bump the match count
      }
    });
    ++local_matches;
  }
  atomic([&](Tx& tx) { matched_.add(tx, local_matches); });
}

bool GenomeApp::verify() {
  Tx& tx = current_tx();  // sequential: plain accesses
  if (unique_->size(tx) != reference_unique_) return false;
  if (claimed_->count_sequential() != num_segments_) return false;
  return matched_.peek() == num_segments_;
}

}  // namespace cstm::stamp
