/**
 * @file
 * Dense float kernels for the planned inference data path: a
 * cache-blocked row-major GEMM and the im2col packer that turns a
 * padded convolution into one branch-free matrix multiply.
 *
 * Both entry points route through the process-wide kernel dispatch
 * table (tensor/kernels.hh) -- the best instruction-set variant the CPU
 * supports, cappable with `FPSA_KERNEL_ISA`.  Callers that need a
 * *pinned* variant (e.g. an ExecutionPlan that promises batched ==
 * single bit-identity against a stamped config) should hold a
 * `KernelTable` reference instead of calling these.
 *
 * Determinism contract: within one kernel table, for a fixed (k)
 * reduction length, every output element accumulates its products in
 * the same order regardless of how many columns the call carries (the
 * k loop is blocked identically and column tiling never reorders a
 * column's partial sums).  A batched call that widens `n` therefore
 * produces bit-identical per-column results to the equivalent
 * single-sample calls -- the property the executor's batch path and
 * its tests rely on.
 */

#ifndef FPSA_TENSOR_GEMM_HH
#define FPSA_TENSOR_GEMM_HH

#include <cstdint>

namespace fpsa
{

/**
 * C[m x n] = A[m x k] * B[k x n], all row-major with the given leading
 * strides (elements between consecutive rows).  C is overwritten.
 *
 * Cache-blocked over k and n, with a register tile per kernel table
 * (tensor/kernels.hh): 4 rows for the scalar and NEON tables, 6 rows
 * by 16 columns for AVX2.  Accumulation per element is strictly
 * k-ascending (see file comment).
 */
void gemmRowMajor(const float *a, std::int64_t lda, const float *b,
                  std::int64_t ldb, float *c, std::int64_t ldc,
                  std::int64_t m, std::int64_t k, std::int64_t n);

/** Contiguous convenience: lda = k, ldb = n, ldc = n. */
inline void
gemmRowMajor(const float *a, const float *b, float *c, std::int64_t m,
             std::int64_t k, std::int64_t n)
{
    gemmRowMajor(a, k, b, n, c, n, m, k, n);
}

/**
 * Pack one CHW image into an im2col matrix of shape
 * [ci*kh*kw x ho*wo] (row-major, leading stride `ldm`): row
 * (ic*kh + ky)*kw + kx holds input channel `ic` sampled at kernel tap
 * (ky, kx) for every output position.  Symmetric padding is resolved
 * here -- out-of-range taps are written as `pad_value` -- so the GEMM
 * consuming the matrix runs with no bounds checks at all.
 *
 * `columns` points at the first column this image occupies, letting a
 * batch pack B images side by side into one [ci*kh*kw x B*ho*wo]
 * matrix (ldm = B*ho*wo) and multiply them in a single GEMM.
 */
void im2colChw(const float *input, std::int64_t ci, std::int64_t hi,
               std::int64_t wi, std::int64_t kh, std::int64_t kw,
               std::int64_t stride, std::int64_t pad, std::int64_t ho,
               std::int64_t wo, float *columns, std::int64_t ldm,
               float pad_value = 0.0f);

} // namespace fpsa

#endif // FPSA_TENSOR_GEMM_HH
