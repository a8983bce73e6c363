/// \file mix_hash.h
/// The 64-bit integer finalizer shared by the hash kernels (exec) and the
/// CSR builder's id relabel table (graph).

#ifndef SODA_UTIL_MIX_HASH_H_
#define SODA_UTIL_MIX_HASH_H_

#include <cstdint>

namespace soda {

/// SplitMix64 finalizer: a full-avalanche 64-bit bijection.
inline uint64_t MixHash(uint64_t x) {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x;
}

}  // namespace soda

#endif  // SODA_UTIL_MIX_HASH_H_
