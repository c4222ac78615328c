// Portable SIMD kernels for the vectorized scan pipeline.
//
// Every kernel exists in two flavors with identical semantics: an
// always-compiled scalar loop (the fallback and the reference for the
// differential tests) and an AVX2 implementation compiled behind the
// ERIS_ENABLE_AVX2 CMake option. The AVX2 variants carry a function-level
// target attribute, so no global -mavx2 flag is needed and the binary still
// runs on non-AVX2 hosts: the public dispatch functions pick the widest
// implementation the executing CPU supports, once, at first use.
//
// All kernels operate on raw uint64_t blocks with an *inclusive* unsigned
// range predicate lo <= v <= hi — the contract of ColumnStore's scans. An
// empty range (lo > hi) matches nothing.
#pragma once

#include <cstddef>
#include <cstdint>

#if defined(ERIS_ENABLE_AVX2) && defined(__x86_64__) && \
    (defined(__GNUC__) || defined(__clang__))
#define ERIS_SIMD_AVX2 1
#include <immintrin.h>
#else
#define ERIS_SIMD_AVX2 0
#endif

namespace eris::simd {

// ---------------------------------------------------------------------------
// Scalar reference kernels (always compiled)
// ---------------------------------------------------------------------------

inline uint64_t SumAllScalar(const uint64_t* data, size_t n) {
  uint64_t sum = 0;
  for (size_t i = 0; i < n; ++i) sum += data[i];
  return sum;
}

inline uint64_t ScanSumScalar(const uint64_t* data, size_t n, uint64_t lo,
                              uint64_t hi) {
  uint64_t sum = 0;
  for (size_t i = 0; i < n; ++i) {
    uint64_t v = data[i];
    sum += (v >= lo && v <= hi) ? v : 0;
  }
  return sum;
}

inline uint64_t ScanCountScalar(const uint64_t* data, size_t n, uint64_t lo,
                                uint64_t hi) {
  uint64_t count = 0;
  for (size_t i = 0; i < n; ++i) {
    count += (data[i] >= lo && data[i] <= hi) ? 1 : 0;
  }
  return count;
}

inline void ScanSumCountScalar(const uint64_t* data, size_t n, uint64_t lo,
                               uint64_t hi, uint64_t* sum, uint64_t* count) {
  uint64_t s = 0;
  uint64_t c = 0;
  for (size_t i = 0; i < n; ++i) {
    uint64_t v = data[i];
    bool match = v >= lo && v <= hi;
    s += match ? v : 0;
    c += match ? 1 : 0;
  }
  *sum = s;
  *count = c;
}

/// Rows, sum, min and max of the elements in [lo, hi]. With no match,
/// min/max keep their identities (~0 and 0), so partial results merge with
/// plain std::min/std::max.
struct ScanStatsResult {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t min = ~uint64_t{0};
  uint64_t max = 0;
};

inline ScanStatsResult ScanStatsScalar(const uint64_t* data, size_t n,
                                       uint64_t lo, uint64_t hi) {
  ScanStatsResult r;
  for (size_t i = 0; i < n; ++i) {
    uint64_t v = data[i];
    if (v < lo || v > hi) continue;
    ++r.count;
    r.sum += v;
    r.min = v < r.min ? v : r.min;
    r.max = v > r.max ? v : r.max;
  }
  return r;
}

/// Writes base + i for every matching element into `out` (which must have
/// room for at least the number of matches); returns the match count.
inline uint64_t ScanCollectScalar(const uint64_t* data, size_t n, uint64_t lo,
                                  uint64_t hi, uint64_t base, uint64_t* out) {
  uint64_t count = 0;
  for (size_t i = 0; i < n; ++i) {
    if (data[i] >= lo && data[i] <= hi) out[count++] = base + i;
  }
  return count;
}

// --- Selection-vector kernels (vectorized pipeline operators) --------------
//
// A selection vector is a dense array of uint32_t positions into one column
// segment (segment capacity is 64 Ki, so 32 bits suffice). Operators of a
// fused pipeline hand selection vectors to each other instead of
// materializing intermediate columns.

/// Filter: writes the position of every element in [lo, hi] into `out`
/// (room for n required); returns the match count.
inline uint32_t FilterIndicesScalar(const uint64_t* data, size_t n,
                                    uint64_t lo, uint64_t hi, uint32_t* out) {
  uint32_t count = 0;
  for (size_t i = 0; i < n; ++i) {
    if (data[i] >= lo && data[i] <= hi) out[count++] = static_cast<uint32_t>(i);
  }
  return count;
}

/// Refining filter: keeps the selected positions whose value in `data` lies
/// in [lo, hi]. `out` may alias `sel` (the kernel only shrinks).
inline uint32_t FilterIndicesSelScalar(const uint64_t* data,
                                       const uint32_t* sel, size_t m,
                                       uint64_t lo, uint64_t hi,
                                       uint32_t* out) {
  uint32_t count = 0;
  for (size_t i = 0; i < m; ++i) {
    uint32_t pos = sel[i];
    uint64_t v = data[pos];
    if (v >= lo && v <= hi) out[count++] = pos;
  }
  return count;
}

/// Aggregate over a selection: sum of data[sel[i]].
inline uint64_t GatherSumSelScalar(const uint64_t* data, const uint32_t* sel,
                                   size_t m) {
  uint64_t sum = 0;
  for (size_t i = 0; i < m; ++i) sum += data[sel[i]];
  return sum;
}

// ---------------------------------------------------------------------------
// AVX2 kernels (compiled when ERIS_ENABLE_AVX2; selected at runtime)
// ---------------------------------------------------------------------------

#if ERIS_SIMD_AVX2

namespace internal {

// AVX2 has no unsigned 64-bit compare; bias both sides by 2^63 so the
// signed compare orders unsigned operands correctly.
__attribute__((target("avx2"))) inline __m256i BiasU64(__m256i v) {
  return _mm256_xor_si256(v, _mm256_set1_epi64x(
                                 static_cast<long long>(0x8000000000000000ull)));
}

// All-ones per lane where lo <= v <= hi (unsigned, inclusive).
__attribute__((target("avx2"))) inline __m256i RangeMaskU64(
    __m256i v_biased, __m256i lo_biased, __m256i hi_biased) {
  __m256i below = _mm256_cmpgt_epi64(lo_biased, v_biased);  // v < lo
  __m256i above = _mm256_cmpgt_epi64(v_biased, hi_biased);  // v > hi
  __m256i outside = _mm256_or_si256(below, above);
  return _mm256_xor_si256(outside, _mm256_set1_epi64x(-1));
}

__attribute__((target("avx2"))) inline uint64_t HorizontalSumU64(__m256i v) {
  alignas(32) uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), v);
  return lanes[0] + lanes[1] + lanes[2] + lanes[3];
}

}  // namespace internal

__attribute__((target("avx2"))) inline uint64_t SumAllAvx2(
    const uint64_t* data, size_t n) {
  __m256i acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + i));
    acc = _mm256_add_epi64(acc, v);
  }
  uint64_t sum = internal::HorizontalSumU64(acc);
  for (; i < n; ++i) sum += data[i];
  return sum;
}

__attribute__((target("avx2"))) inline void ScanSumCountAvx2(
    const uint64_t* data, size_t n, uint64_t lo, uint64_t hi, uint64_t* sum,
    uint64_t* count) {
  const __m256i lo_b = internal::BiasU64(_mm256_set1_epi64x(
      static_cast<long long>(lo)));
  const __m256i hi_b = internal::BiasU64(_mm256_set1_epi64x(
      static_cast<long long>(hi)));
  __m256i sum_acc = _mm256_setzero_si256();
  __m256i cnt_acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + i));
    __m256i mask = internal::RangeMaskU64(internal::BiasU64(v), lo_b, hi_b);
    sum_acc = _mm256_add_epi64(sum_acc, _mm256_and_si256(mask, v));
    // Matching lanes are all-ones == -1: subtracting adds 1 per match.
    cnt_acc = _mm256_sub_epi64(cnt_acc, mask);
  }
  uint64_t s = internal::HorizontalSumU64(sum_acc);
  uint64_t c = internal::HorizontalSumU64(cnt_acc);
  for (; i < n; ++i) {
    uint64_t v = data[i];
    bool match = v >= lo && v <= hi;
    s += match ? v : 0;
    c += match ? 1 : 0;
  }
  *sum = s;
  *count = c;
}

/// Same shape as ScanSumCountAvx2; min/max run in the biased (signed)
/// domain, with non-matching lanes blended to the identities.
__attribute__((target("avx2"))) inline ScanStatsResult ScanStatsAvx2(
    const uint64_t* data, size_t n, uint64_t lo, uint64_t hi) {
  const __m256i lo_b = internal::BiasU64(_mm256_set1_epi64x(
      static_cast<long long>(lo)));
  const __m256i hi_b = internal::BiasU64(_mm256_set1_epi64x(
      static_cast<long long>(hi)));
  // Biased identities: ~0 -> INT64_MAX (for min), 0 -> INT64_MIN (for max).
  const __m256i min_id = _mm256_set1_epi64x(0x7fffffffffffffffll);
  const __m256i max_id = internal::BiasU64(_mm256_setzero_si256());
  __m256i sum_acc = _mm256_setzero_si256();
  __m256i cnt_acc = _mm256_setzero_si256();
  __m256i min_acc = min_id;
  __m256i max_acc = max_id;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + i));
    __m256i vb = internal::BiasU64(v);
    __m256i mask = internal::RangeMaskU64(vb, lo_b, hi_b);
    sum_acc = _mm256_add_epi64(sum_acc, _mm256_and_si256(mask, v));
    cnt_acc = _mm256_sub_epi64(cnt_acc, mask);
    __m256i lo_cand = _mm256_blendv_epi8(min_id, vb, mask);
    __m256i hi_cand = _mm256_blendv_epi8(max_id, vb, mask);
    min_acc = _mm256_blendv_epi8(min_acc, lo_cand,
                                 _mm256_cmpgt_epi64(min_acc, lo_cand));
    max_acc = _mm256_blendv_epi8(max_acc, hi_cand,
                                 _mm256_cmpgt_epi64(hi_cand, max_acc));
  }
  ScanStatsResult r;
  r.sum = internal::HorizontalSumU64(sum_acc);
  r.count = internal::HorizontalSumU64(cnt_acc);
  alignas(32) uint64_t mins[4];
  alignas(32) uint64_t maxs[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(mins),
                     internal::BiasU64(min_acc));
  _mm256_store_si256(reinterpret_cast<__m256i*>(maxs),
                     internal::BiasU64(max_acc));
  for (int lane = 0; lane < 4; ++lane) {
    r.min = mins[lane] < r.min ? mins[lane] : r.min;
    r.max = maxs[lane] > r.max ? maxs[lane] : r.max;
  }
  ScanStatsResult tail = ScanStatsScalar(data + i, n - i, lo, hi);
  r.count += tail.count;
  r.sum += tail.sum;
  r.min = tail.min < r.min ? tail.min : r.min;
  r.max = tail.max > r.max ? tail.max : r.max;
  return r;
}

__attribute__((target("avx2"))) inline uint64_t ScanSumAvx2(
    const uint64_t* data, size_t n, uint64_t lo, uint64_t hi) {
  uint64_t sum;
  uint64_t count;
  ScanSumCountAvx2(data, n, lo, hi, &sum, &count);
  return sum;
}

__attribute__((target("avx2"))) inline uint64_t ScanCountAvx2(
    const uint64_t* data, size_t n, uint64_t lo, uint64_t hi) {
  uint64_t sum;
  uint64_t count;
  ScanSumCountAvx2(data, n, lo, hi, &sum, &count);
  return count;
}

__attribute__((target("avx2"))) inline uint64_t ScanCollectAvx2(
    const uint64_t* data, size_t n, uint64_t lo, uint64_t hi, uint64_t base,
    uint64_t* out) {
  const __m256i lo_b = internal::BiasU64(_mm256_set1_epi64x(
      static_cast<long long>(lo)));
  const __m256i hi_b = internal::BiasU64(_mm256_set1_epi64x(
      static_cast<long long>(hi)));
  uint64_t count = 0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + i));
    __m256i mask = internal::RangeMaskU64(internal::BiasU64(v), lo_b, hi_b);
    int bits = _mm256_movemask_pd(_mm256_castsi256_pd(mask));
    while (bits != 0) {
      int lane = __builtin_ctz(static_cast<unsigned>(bits));
      out[count++] = base + i + static_cast<uint64_t>(lane);
      bits &= bits - 1;
    }
  }
  for (; i < n; ++i) {
    if (data[i] >= lo && data[i] <= hi) out[count++] = base + i;
  }
  return count;
}

__attribute__((target("avx2"))) inline uint32_t FilterIndicesAvx2(
    const uint64_t* data, size_t n, uint64_t lo, uint64_t hi, uint32_t* out) {
  const __m256i lo_b = internal::BiasU64(_mm256_set1_epi64x(
      static_cast<long long>(lo)));
  const __m256i hi_b = internal::BiasU64(_mm256_set1_epi64x(
      static_cast<long long>(hi)));
  uint32_t count = 0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + i));
    __m256i mask = internal::RangeMaskU64(internal::BiasU64(v), lo_b, hi_b);
    int bits = _mm256_movemask_pd(_mm256_castsi256_pd(mask));
    while (bits != 0) {
      int lane = __builtin_ctz(static_cast<unsigned>(bits));
      out[count++] = static_cast<uint32_t>(i) + static_cast<uint32_t>(lane);
      bits &= bits - 1;
    }
  }
  for (; i < n; ++i) {
    if (data[i] >= lo && data[i] <= hi) out[count++] = static_cast<uint32_t>(i);
  }
  return count;
}

__attribute__((target("avx2"))) inline uint32_t FilterIndicesSelAvx2(
    const uint64_t* data, const uint32_t* sel, size_t m, uint64_t lo,
    uint64_t hi, uint32_t* out) {
  const __m256i lo_b = internal::BiasU64(_mm256_set1_epi64x(
      static_cast<long long>(lo)));
  const __m256i hi_b = internal::BiasU64(_mm256_set1_epi64x(
      static_cast<long long>(hi)));
  uint32_t count = 0;
  size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    __m128i idx = _mm_loadu_si128(reinterpret_cast<const __m128i*>(sel + i));
    __m256i v = _mm256_i32gather_epi64(
        reinterpret_cast<const long long*>(data), idx, 8);
    __m256i mask = internal::RangeMaskU64(internal::BiasU64(v), lo_b, hi_b);
    int bits = _mm256_movemask_pd(_mm256_castsi256_pd(mask));
    while (bits != 0) {
      int lane = __builtin_ctz(static_cast<unsigned>(bits));
      out[count++] = sel[i + static_cast<size_t>(lane)];
      bits &= bits - 1;
    }
  }
  for (; i < m; ++i) {
    uint64_t v = data[sel[i]];
    if (v >= lo && v <= hi) out[count++] = sel[i];
  }
  return count;
}

__attribute__((target("avx2"))) inline uint64_t GatherSumSelAvx2(
    const uint64_t* data, const uint32_t* sel, size_t m) {
  __m256i acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    __m128i idx = _mm_loadu_si128(reinterpret_cast<const __m128i*>(sel + i));
    __m256i v = _mm256_i32gather_epi64(
        reinterpret_cast<const long long*>(data), idx, 8);
    acc = _mm256_add_epi64(acc, v);
  }
  uint64_t sum = internal::HorizontalSumU64(acc);
  for (; i < m; ++i) sum += data[sel[i]];
  return sum;
}

#endif  // ERIS_SIMD_AVX2

// ---------------------------------------------------------------------------
// Runtime dispatch
// ---------------------------------------------------------------------------

/// True when the AVX2 kernels are compiled in and the executing CPU
/// supports them.
inline bool HaveAvx2() {
#if ERIS_SIMD_AVX2
  static const bool have = __builtin_cpu_supports("avx2");
  return have;
#else
  return false;
#endif
}

/// Name of the kernel set the dispatchers resolve to ("avx2" / "scalar").
inline const char* BackendName() { return HaveAvx2() ? "avx2" : "scalar"; }

/// Unconditional sum of `n` values (the zone-map fully-covered fast path).
inline uint64_t SumAll(const uint64_t* data, size_t n) {
#if ERIS_SIMD_AVX2
  if (HaveAvx2()) return SumAllAvx2(data, n);
#endif
  return SumAllScalar(data, n);
}

inline uint64_t ScanSum(const uint64_t* data, size_t n, uint64_t lo,
                        uint64_t hi) {
#if ERIS_SIMD_AVX2
  if (HaveAvx2()) return ScanSumAvx2(data, n, lo, hi);
#endif
  return ScanSumScalar(data, n, lo, hi);
}

inline uint64_t ScanCount(const uint64_t* data, size_t n, uint64_t lo,
                          uint64_t hi) {
#if ERIS_SIMD_AVX2
  if (HaveAvx2()) return ScanCountAvx2(data, n, lo, hi);
#endif
  return ScanCountScalar(data, n, lo, hi);
}

inline void ScanSumCount(const uint64_t* data, size_t n, uint64_t lo,
                         uint64_t hi, uint64_t* sum, uint64_t* count) {
#if ERIS_SIMD_AVX2
  if (HaveAvx2()) {
    ScanSumCountAvx2(data, n, lo, hi, sum, count);
    return;
  }
#endif
  ScanSumCountScalar(data, n, lo, hi, sum, count);
}

inline ScanStatsResult ScanStats(const uint64_t* data, size_t n, uint64_t lo,
                                 uint64_t hi) {
#if ERIS_SIMD_AVX2
  if (HaveAvx2()) return ScanStatsAvx2(data, n, lo, hi);
#endif
  return ScanStatsScalar(data, n, lo, hi);
}

inline uint64_t ScanCollect(const uint64_t* data, size_t n, uint64_t lo,
                            uint64_t hi, uint64_t base, uint64_t* out) {
#if ERIS_SIMD_AVX2
  if (HaveAvx2()) return ScanCollectAvx2(data, n, lo, hi, base, out);
#endif
  return ScanCollectScalar(data, n, lo, hi, base, out);
}

inline uint32_t FilterIndices(const uint64_t* data, size_t n, uint64_t lo,
                              uint64_t hi, uint32_t* out) {
#if ERIS_SIMD_AVX2
  if (HaveAvx2()) return FilterIndicesAvx2(data, n, lo, hi, out);
#endif
  return FilterIndicesScalar(data, n, lo, hi, out);
}

inline uint32_t FilterIndicesSel(const uint64_t* data, const uint32_t* sel,
                                 size_t m, uint64_t lo, uint64_t hi,
                                 uint32_t* out) {
#if ERIS_SIMD_AVX2
  if (HaveAvx2()) return FilterIndicesSelAvx2(data, sel, m, lo, hi, out);
#endif
  return FilterIndicesSelScalar(data, sel, m, lo, hi, out);
}

inline uint64_t GatherSumSel(const uint64_t* data, const uint32_t* sel,
                             size_t m) {
#if ERIS_SIMD_AVX2
  if (HaveAvx2()) return GatherSumSelAvx2(data, sel, m);
#endif
  return GatherSumSelScalar(data, sel, m);
}

}  // namespace eris::simd
