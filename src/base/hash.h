// Shared 64-bit mixing primitives for shard selection and fingerprinting.
//
// Two kinds of mix, used by the sharded subsystems (index counters, buffer
// pool) and the content fingerprint:
//
//  * FibonacciMix: multiply by the golden-ratio constant and fold the high
//    bits down. Cheap, and ideal for shard selection when the input's low
//    bits are already used elsewhere (hash-map buckets, sequential ids) —
//    the shard choice reads the decorrelated high bits instead.
//  * Mix64: the splitmix64 finalizer — full avalanche, so every input bit
//    diffuses into the whole word. Required where single-bit inputs must
//    not cancel linearly (e.g. the null tag bit of a Term under a
//    multiplicative fold, or values summed into an order-independent
//    digest).
//
// And one checksum over bytes, Checksum64, shared by every persisted
// artifact (the binary envelopes and the pager's pages).

#ifndef CHASE_BASE_HASH_H_
#define CHASE_BASE_HASH_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>

namespace chase {

inline uint64_t FibonacciMix(uint64_t h) {
  h *= 0x9e3779b97f4a7c15ULL;
  h ^= h >> 32;
  return h;
}

inline uint64_t Mix64(uint64_t h) {
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return h;
}

// Checksum of a byte string, read as 8-byte little-endian words spread
// over 4 independent lanes so the multiplies pipeline (about a word per
// cycle, memory-bound on large inputs). Each step
//   lane = rotl(lane + word * kP2, 31) * kP1
// is a bijection of the word for a fixed lane and of the lane for a fixed
// word, the 0-7 tail bytes form one more word, and the final fold is a
// bijection of each lane in turn. So two inputs of the same length that
// differ in any single byte always get different checksums. Words are
// loaded with memcpy: the bytes may sit at any offset.
inline uint64_t Checksum64(std::span<const uint8_t> bytes) {
  constexpr uint64_t kP1 = 0x9e3779b185ebca87ULL;
  constexpr uint64_t kP2 = 0xc2b2ae3d27d4eb4fULL;
  auto step = [](uint64_t lane, uint64_t word) {
    return std::rotl(lane + word * kP2, 31) * kP1;
  };
  auto load = [](const uint8_t* p) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    if constexpr (std::endian::native == std::endian::big) {
      word = __builtin_bswap64(word);
    }
    return word;
  };
  uint64_t lanes[4] = {kP1 + kP2, kP2, 0, 0 - kP1};
  const uint8_t* p = bytes.data();
  size_t left = bytes.size();
  for (; left >= 32; p += 32, left -= 32) {
    lanes[0] = step(lanes[0], load(p));
    lanes[1] = step(lanes[1], load(p + 8));
    lanes[2] = step(lanes[2], load(p + 16));
    lanes[3] = step(lanes[3], load(p + 24));
  }
  size_t lane = 0;
  for (; left >= 8; p += 8, left -= 8) {
    lanes[lane] = step(lanes[lane], load(p));
    ++lane;
  }
  if (left > 0) {
    uint64_t tail = 0;
    for (size_t i = 0; i < left; ++i) tail |= uint64_t{p[i]} << (8 * i);
    lanes[lane] = step(lanes[lane], tail);
  }
  uint64_t h = bytes.size() * kP1;
  for (uint64_t value : lanes) h = std::rotl(h ^ step(0, value), 27) * kP2;
  return Mix64(h);
}

}  // namespace chase

#endif  // CHASE_BASE_HASH_H_
