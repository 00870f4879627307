#include "tensor/kernels.hh"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <cstring>
#include <type_traits>

#include "common/logging.hh"

#if defined(__x86_64__) || defined(__i386__)
#define FPSA_KERNELS_X86 1
#include <cpuid.h>
#include <immintrin.h>
#endif
#if defined(__aarch64__)
#define FPSA_KERNELS_NEON 1
#include <arm_neon.h>
#endif

namespace fpsa
{

namespace
{

/**
 * Block sizes shared by every variant: one k-panel of B (kKc rows x
 * kNc columns) plus the C rows a register tile holds stay
 * resident in L2 while the inner loops stream over them.  The vector
 * variants MUST keep these constants: the k-blocking is part of each
 * column's accumulation order, and the plan's batched==single
 * bit-identity only needs the order fixed per table.
 */
constexpr std::int64_t kKc = 128;
constexpr std::int64_t kNc = 512;

// ------------------------------------------------------------- scalar fp32

/**
 * Register-tiled core: C[4 x nb] += A[4 x kb] * B[kb x nb] for one
 * (k, n) block.  Four output rows share every B row load; the compiler
 * vectorizes the column loop (four independent multiply-adds per
 * element, unfused -- the PR-5 baseline semantics).
 */
inline void
axpyTile4(const float *__restrict a0, const float *__restrict a1,
          const float *__restrict a2, const float *__restrict a3,
          const float *__restrict b, std::int64_t ldb,
          float *__restrict c0, float *__restrict c1,
          float *__restrict c2, float *__restrict c3, std::int64_t kb,
          std::int64_t nb)
{
    for (std::int64_t p = 0; p < kb; ++p) {
        const float av0 = a0[p], av1 = a1[p], av2 = a2[p], av3 = a3[p];
        const float *__restrict bp = b + p * ldb;
        for (std::int64_t j = 0; j < nb; ++j) {
            const float bv = bp[j];
            c0[j] += av0 * bv;
            c1[j] += av1 * bv;
            c2[j] += av2 * bv;
            c3[j] += av3 * bv;
        }
    }
}

inline void
axpyTile1(const float *__restrict a, const float *__restrict b,
          std::int64_t ldb, float *__restrict c, std::int64_t kb,
          std::int64_t nb)
{
    for (std::int64_t p = 0; p < kb; ++p) {
        const float av = a[p];
        const float *__restrict bp = b + p * ldb;
        for (std::int64_t j = 0; j < nb; ++j)
            c[j] += av * bp[j];
    }
}

void
gemmScalar(const float *a, std::int64_t lda, const float *b,
           std::int64_t ldb, float *c, std::int64_t ldc, std::int64_t m,
           std::int64_t k, std::int64_t n)
{
    for (std::int64_t i = 0; i < m; ++i)
        std::memset(c + i * ldc, 0,
                    static_cast<std::size_t>(n) * sizeof(float));
    // k blocks advance strictly in order and each element's partial sum
    // lives in C between blocks, so per-element accumulation order is
    // k-ascending independent of the (jc, i) tiling -- the determinism
    // contract in kernels.hh.
    for (std::int64_t jc = 0; jc < n; jc += kNc) {
        const std::int64_t nb = std::min(kNc, n - jc);
        for (std::int64_t pc = 0; pc < k; pc += kKc) {
            const std::int64_t kb = std::min(kKc, k - pc);
            const float *bp = b + pc * ldb + jc;
            std::int64_t i = 0;
            for (; i + 4 <= m; i += 4) {
                const float *ap = a + i * lda + pc;
                float *cp = c + i * ldc + jc;
                axpyTile4(ap, ap + lda, ap + 2 * lda, ap + 3 * lda, bp,
                          ldb, cp, cp + ldc, cp + 2 * ldc, cp + 3 * ldc,
                          kb, nb);
            }
            for (; i < m; ++i) {
                axpyTile1(a + i * lda + pc, bp, ldb, c + i * ldc + jc,
                          kb, nb);
            }
        }
    }
}

// ----------------------------------------------------------- shared bodies

/**
 * One im2col row of a same-padded stride-1 conv (output plane = input
 * plane, hi x wi): the input plane shifted by dy rows and dx columns,
 * with taps that leave the plane written as `pad_value`.  Row-major,
 * the shift is one flat offset dy * wi + dx, so the interior is one
 * bulk copy; it is clipped to the plane and to the rows whose taps
 * stay in range, and the |dx| border columns of each row, which the
 * flat copy filled from the neighbouring row, are padded after.
 */
template <typename T>
inline void
shiftedPlane(const T *plane, std::int64_t hi, std::int64_t wi,
             std::int64_t dy, std::int64_t dx, T *dst, T pad_value)
{
    const std::int64_t hw = hi * wi;
    const std::int64_t oy_lo = std::max<std::int64_t>(0, -dy);
    const std::int64_t oy_hi = std::min(hi, hi - dy);
    if (oy_lo >= oy_hi || dx >= wi || -dx >= wi) {
        std::fill(dst, dst + hw, pad_value);
        return;
    }
    const std::int64_t shift = dy * wi + dx;
    const std::int64_t p0 = std::max(oy_lo * wi, -shift);
    const std::int64_t p1 = std::min(oy_hi * wi, hw - shift);
    std::fill(dst, dst + p0, pad_value);
    std::memcpy(dst + p0, plane + p0 + shift,
                static_cast<std::size_t>(p1 - p0) * sizeof(T));
    std::fill(dst + p1, dst + hw, pad_value);
    if (dx == 0)
        return;
    // One store per row for the usual |dx| == 1; a plain loop over the
    // |dx| columns would become a memset call per row.
    const std::int64_t width = dx > 0 ? dx : -dx;
    T *const end = dst + oy_hi * wi;
    for (T *p = dst + oy_lo * wi + (dx > 0 ? wi - dx : 0); p < end;
         p += wi) {
        p[0] = pad_value;
        for (std::int64_t x = 1; x < width; ++x)
            p[x] = pad_value;
    }
}

/**
 * im2col packing body (see `KernelTable::im2colChw` for the layout
 * contract), generic over the element type: fp32 activations for the
 * float path, int8 levels for the quantized one.  Pure copies and fills -- no
 * arithmetic -- so every variant is bit-identical; the vector tables
 * recompile it only for wider moves.  A same-padded stride-1 conv
 * writes each tap's row as one shifted copy of the plane
 * (`shiftedPlane`) instead of ho row copies and fills.
 */
template <typename T>
inline void
im2colBody(const T *input, std::int64_t ci, std::int64_t hi,
           std::int64_t wi, std::int64_t kh, std::int64_t kw,
           std::int64_t stride, std::int64_t pad, std::int64_t ho,
           std::int64_t wo, T *columns, std::int64_t ldm, T pad_value)
{
    if (stride == 1 && ho == hi && wo == wi) {
        for (std::int64_t ic = 0; ic < ci; ++ic)
            for (std::int64_t ky = 0; ky < kh; ++ky)
                for (std::int64_t kx = 0; kx < kw; ++kx)
                    shiftedPlane(input + ic * hi * wi, hi, wi, ky - pad,
                                 kx - pad,
                                 columns + ((ic * kh + ky) * kw + kx) * ldm,
                                 pad_value);
        return;
    }
    for (std::int64_t ic = 0; ic < ci; ++ic) {
        const T *plane = input + ic * hi * wi;
        for (std::int64_t ky = 0; ky < kh; ++ky) {
            for (std::int64_t kx = 0; kx < kw; ++kx) {
                T *row = columns + ((ic * kh + ky) * kw + kx) * ldm;
                // Valid output x range for this tap: ox*stride+kx-pad
                // in [0, wi).  Everything outside is pad_value; inside
                // is a contiguous (stride==1) or strided copy -- no
                // per-element branch either way.  last_ix < 0 (the tap
                // never lands in range, possible when kernel > wi+pad)
                // must clamp to an empty range, not divide negatively.
                const std::int64_t ox_lo = std::max<std::int64_t>(
                    0, (pad - kx + stride - 1) / stride);
                const std::int64_t last_ix = wi - 1 - kx + pad;
                const std::int64_t ox_hi =
                    last_ix < 0 ? 0
                                : std::min(wo, last_ix / stride + 1);
                for (std::int64_t oy = 0; oy < ho; ++oy) {
                    const std::int64_t iy = oy * stride + ky - pad;
                    T *dst = row + oy * wo;
                    if (iy < 0 || iy >= hi || ox_lo >= ox_hi) {
                        std::fill(dst, dst + wo, pad_value);
                        continue;
                    }
                    std::fill(dst, dst + ox_lo, pad_value);
                    const T *src = plane + iy * wi - pad + kx;
                    if (stride == 1) {
                        std::memcpy(dst + ox_lo, src + ox_lo,
                                    static_cast<std::size_t>(ox_hi -
                                                             ox_lo) *
                                        sizeof(T));
                    } else {
                        for (std::int64_t ox = ox_lo; ox < ox_hi; ++ox)
                            dst[ox] = src[ox * stride];
                    }
                    std::fill(dst + ox_hi, dst + wo, pad_value);
                }
            }
        }
    }
}

/**
 * int8 x int8 -> int32 GEMM body, same blocking/tiling as the fp32
 * scalar kernel.  Integer accumulation is exact, so the result is
 * bit-identical across variants and column tilings; worst case fits
 * int32 comfortably (127^2 * k < 2^31 for k up to ~130000, far above
 * any layer this repo builds).
 */
inline void
gemmInt8Body(const std::int8_t *a, std::int64_t lda,
             const std::int8_t *b, std::int64_t ldb, std::int32_t *c,
             std::int64_t ldc, std::int64_t m, std::int64_t k,
             std::int64_t n)
{
    for (std::int64_t i = 0; i < m; ++i)
        std::memset(c + i * ldc, 0,
                    static_cast<std::size_t>(n) * sizeof(std::int32_t));
    for (std::int64_t jc = 0; jc < n; jc += kNc) {
        const std::int64_t nb = std::min(kNc, n - jc);
        for (std::int64_t pc = 0; pc < k; pc += kKc) {
            const std::int64_t kb = std::min(kKc, k - pc);
            const std::int8_t *bp = b + pc * ldb + jc;
            std::int64_t i = 0;
            for (; i + 4 <= m; i += 4) {
                const std::int8_t *a0 = a + i * lda + pc;
                const std::int8_t *a1 = a0 + lda;
                const std::int8_t *a2 = a1 + lda;
                const std::int8_t *a3 = a2 + lda;
                std::int32_t *c0 = c + i * ldc + jc;
                std::int32_t *c1 = c0 + ldc;
                std::int32_t *c2 = c1 + ldc;
                std::int32_t *c3 = c2 + ldc;
                for (std::int64_t p = 0; p < kb; ++p) {
                    const std::int32_t av0 = a0[p], av1 = a1[p];
                    const std::int32_t av2 = a2[p], av3 = a3[p];
                    const std::int8_t *__restrict br = bp + p * ldb;
                    for (std::int64_t j = 0; j < nb; ++j) {
                        const std::int32_t bv = br[j];
                        c0[j] += av0 * bv;
                        c1[j] += av1 * bv;
                        c2[j] += av2 * bv;
                        c3[j] += av3 * bv;
                    }
                }
            }
            for (; i < m; ++i) {
                const std::int8_t *ar = a + i * lda + pc;
                std::int32_t *cr = c + i * ldc + jc;
                for (std::int64_t p = 0; p < kb; ++p) {
                    const std::int32_t av = ar[p];
                    const std::int8_t *__restrict br = bp + p * ldb;
                    for (std::int64_t j = 0; j < nb; ++j)
                        cr[j] += av * static_cast<std::int32_t>(br[j]);
                }
            }
        }
    }
}

void
im2colScalar(const float *input, std::int64_t ci, std::int64_t hi,
             std::int64_t wi, std::int64_t kh, std::int64_t kw,
             std::int64_t stride, std::int64_t pad, std::int64_t ho,
             std::int64_t wo, float *columns, std::int64_t ldm,
             float pad_value)
{
    im2colBody(input, ci, hi, wi, kh, kw, stride, pad, ho, wo, columns,
               ldm, pad_value);
}

void
gemmInt8Scalar(const std::int8_t *a, std::int64_t lda,
               const std::int8_t *b, std::int64_t ldb, std::int32_t *c,
               std::int64_t ldc, std::int64_t m, std::int64_t k,
               std::int64_t n)
{
    gemmInt8Body(a, lda, b, ldb, c, ldc, m, k, n);
}

// --------------------------------------------------------------- AVX2+FMA

#if FPSA_KERNELS_X86

/**
 * For a remainder of `rows` <= R rows starting at row i, call
 * tile(std::integral_constant<int, rows>{}, i), so the tile's row
 * count is a compile-time constant; zero rows call nothing.
 */
template <int R, typename Tile>
inline void
rowTail(std::int64_t rows, std::int64_t i, const Tile &tile)
{
    if constexpr (R > 0) {
        if (rows == R)
            tile(std::integral_constant<int, R>{}, i);
        else
            rowTail<R - 1>(rows, i, tile);
    }
}

/** Every full R-row block of m rows, then the 1..R-1-row tail. */
template <int R, typename Tile>
inline void
forRowTiles(std::int64_t m, const Tile &tile)
{
    std::int64_t i = 0;
    for (; i + R <= m; i += R)
        tile(std::integral_constant<int, R>{}, i);
    rowTail<R - 1>(m - i, i, tile);
}

/**
 * The vector fp32 GEMMs' blocking: C is zeroed, then for every (k, n)
 * block, k blocks in order, `tile(rows, a, lda, b, ldb, c, ldc, kb,
 * nb)` adds A[rows x kb] * B[kb x nb] into C for every row block of up
 * to R rows.  Each element's partial sum lives in C between k blocks,
 * so its accumulation order is fixed by k alone.
 */
template <int R, typename Tile>
inline void
gemmBlocked(const float *a, std::int64_t lda, const float *b,
            std::int64_t ldb, float *c, std::int64_t ldc, std::int64_t m,
            std::int64_t k, std::int64_t n, const Tile &tile)
{
    for (std::int64_t i = 0; i < m; ++i)
        std::memset(c + i * ldc, 0,
                    static_cast<std::size_t>(n) * sizeof(float));
    for (std::int64_t jc = 0; jc < n; jc += kNc) {
        const std::int64_t nb = std::min(kNc, n - jc);
        for (std::int64_t pc = 0; pc < k; pc += kKc) {
            const std::int64_t kb = std::min(kKc, k - pc);
            forRowTiles<R>(m, [&](auto rows, std::int64_t i) {
                tile(rows, a + i * lda + pc, lda, b + pc * ldb + jc, ldb,
                     c + i * ldc + jc, ldc, kb, nb);
            });
        }
    }
}

/**
 * R-row fp32 register tile, 8-lane FMA: C[R x nb] += A[R x kb] *
 * B[kb x nb] for one (k, n) block.  The 16-column body keeps 2R
 * accumulators (12 ymm registers at R = 6); per k it loads two B
 * vectors straight from the row and issues one broadcast FMA per A row
 * and vector, enough independent chains to hide the FMA latency.  An
 * 8-column step and a scalar loop cover the column tail.
 *
 * Every column -- vector lanes and the scalar tail alike -- accumulates
 * c = fma(a[p], b[p][j], c) in k-ascending order, so a column's value
 * does not depend on R or on where the tiling puts it (the table-level
 * determinism contract).  B is not packed: packing a strip was measured
 * no faster, and slower on batch-1 fc layers.
 *
 * Every loop over r is unrolled by pragma so the accumulator arrays
 * become registers; without it gcc -O2 keeps them in memory and the
 * tile runs at half speed.
 */
template <int R>
__attribute__((target("avx2,fma"))) void
tileAvx2(const float *a, std::int64_t lda, const float *b,
         std::int64_t ldb, float *c, std::int64_t ldc, std::int64_t kb,
         std::int64_t nb)
{
    std::int64_t j = 0;
    for (; j + 16 <= nb; j += 16) {
        __m256 lo[R], hi[R];
#pragma GCC unroll 6
        for (int r = 0; r < R; ++r) {
            lo[r] = _mm256_loadu_ps(c + r * ldc + j);
            hi[r] = _mm256_loadu_ps(c + r * ldc + j + 8);
        }
        for (std::int64_t p = 0; p < kb; ++p) {
            const float *bp = b + p * ldb + j;
            const __m256 b0 = _mm256_loadu_ps(bp);
            const __m256 b1 = _mm256_loadu_ps(bp + 8);
#pragma GCC unroll 6
            for (int r = 0; r < R; ++r) {
                const __m256 av = _mm256_broadcast_ss(a + r * lda + p);
                lo[r] = _mm256_fmadd_ps(av, b0, lo[r]);
                hi[r] = _mm256_fmadd_ps(av, b1, hi[r]);
            }
        }
#pragma GCC unroll 6
        for (int r = 0; r < R; ++r) {
            _mm256_storeu_ps(c + r * ldc + j, lo[r]);
            _mm256_storeu_ps(c + r * ldc + j + 8, hi[r]);
        }
    }
    if (j + 8 <= nb) {
        __m256 s[R];
#pragma GCC unroll 6
        for (int r = 0; r < R; ++r)
            s[r] = _mm256_loadu_ps(c + r * ldc + j);
        for (std::int64_t p = 0; p < kb; ++p) {
            const __m256 bv = _mm256_loadu_ps(b + p * ldb + j);
#pragma GCC unroll 6
            for (int r = 0; r < R; ++r)
                s[r] = _mm256_fmadd_ps(
                    _mm256_broadcast_ss(a + r * lda + p), bv, s[r]);
        }
#pragma GCC unroll 6
        for (int r = 0; r < R; ++r)
            _mm256_storeu_ps(c + r * ldc + j, s[r]);
        j += 8;
    }
    for (; j < nb; ++j) {
        float s[R];
#pragma GCC unroll 6
        for (int r = 0; r < R; ++r)
            s[r] = c[r * ldc + j];
        for (std::int64_t p = 0; p < kb; ++p) {
            const float bv = b[p * ldb + j];
#pragma GCC unroll 6
            for (int r = 0; r < R; ++r)
                s[r] = __builtin_fmaf(a[r * lda + p], bv, s[r]);
        }
#pragma GCC unroll 6
        for (int r = 0; r < R; ++r)
            c[r * ldc + j] = s[r];
    }
}

void
gemmAvx2(const float *a, std::int64_t lda, const float *b,
         std::int64_t ldb, float *c, std::int64_t ldc, std::int64_t m,
         std::int64_t k, std::int64_t n)
{
    gemmBlocked<6>(a, lda, b, ldb, c, ldc, m, k, n,
                   [](auto rows, auto... args) {
                       tileAvx2<decltype(rows)::value>(args...);
                   });
}

/** The lane mask of the first min(cols, 16) columns of a zmm. */
inline __mmask16
columnMask(std::int64_t cols)
{
    return static_cast<__mmask16>(cols >= 16 ? 0xffffu
                                             : (1u << cols) - 1u);
}

/**
 * `tileAvx2` at twice the width, for hosts with AVX-512: a 32-column
 * body with 2R zmm accumulators (24 at R = 12), two B loads and one
 * broadcast FMA per row per k; then one 16-column step and a masked
 * tail, whose C and B loads zero the lanes past nb and whose store
 * leaves them untouched.  Every lane runs the same k-ascending
 * c = fma(a[p], b[p][j], c) chain as `tileAvx2`'s, in the same k
 * blocks, so `gemmAvx512` equals `gemmAvx2` bit for bit.
 */
template <int R>
__attribute__((target("avx2,fma,avx512f"))) void
tileAvx512(const float *a, std::int64_t lda, const float *b,
           std::int64_t ldb, float *c, std::int64_t ldc, std::int64_t kb,
           std::int64_t nb)
{
    std::int64_t j = 0;
    for (; j + 32 <= nb; j += 32) {
        __m512 lo[R], hi[R];
#pragma GCC unroll 12
        for (int r = 0; r < R; ++r) {
            lo[r] = _mm512_loadu_ps(c + r * ldc + j);
            hi[r] = _mm512_loadu_ps(c + r * ldc + j + 16);
        }
        for (std::int64_t p = 0; p < kb; ++p) {
            const float *bp = b + p * ldb + j;
            const __m512 b0 = _mm512_loadu_ps(bp);
            const __m512 b1 = _mm512_loadu_ps(bp + 16);
#pragma GCC unroll 12
            for (int r = 0; r < R; ++r) {
                const __m512 av = _mm512_set1_ps(a[r * lda + p]);
                lo[r] = _mm512_fmadd_ps(av, b0, lo[r]);
                hi[r] = _mm512_fmadd_ps(av, b1, hi[r]);
            }
        }
#pragma GCC unroll 12
        for (int r = 0; r < R; ++r) {
            _mm512_storeu_ps(c + r * ldc + j, lo[r]);
            _mm512_storeu_ps(c + r * ldc + j + 16, hi[r]);
        }
    }
    for (; j < nb; j += 16) {
        const __mmask16 mask = columnMask(nb - j);
        __m512 s[R];
#pragma GCC unroll 12
        for (int r = 0; r < R; ++r)
            s[r] = _mm512_maskz_loadu_ps(mask, c + r * ldc + j);
        for (std::int64_t p = 0; p < kb; ++p) {
            const __m512 bv = _mm512_maskz_loadu_ps(mask, b + p * ldb + j);
#pragma GCC unroll 12
            for (int r = 0; r < R; ++r)
                s[r] = _mm512_fmadd_ps(_mm512_set1_ps(a[r * lda + p]), bv,
                                       s[r]);
        }
#pragma GCC unroll 12
        for (int r = 0; r < R; ++r)
            _mm512_mask_storeu_ps(c + r * ldc + j, mask, s[r]);
    }
}

void
gemmAvx512(const float *a, std::int64_t lda, const float *b,
           std::int64_t ldb, float *c, std::int64_t ldc, std::int64_t m,
           std::int64_t k, std::int64_t n)
{
    gemmBlocked<12>(a, lda, b, ldb, c, ldc, m, k, n,
                    [](auto rows, auto... args) {
                        tileAvx512<decltype(rows)::value>(args...);
                    });
}

/** The shared im2col body, recompiled for 256-bit moves. */
__attribute__((target("avx2"))) void
im2colAvx2(const float *input, std::int64_t ci, std::int64_t hi,
           std::int64_t wi, std::int64_t kh, std::int64_t kw,
           std::int64_t stride, std::int64_t pad, std::int64_t ho,
           std::int64_t wo, float *columns, std::int64_t ldm,
           float pad_value)
{
    im2colBody(input, ci, hi, wi, kh, kw, stride, pad, ho, wo, columns,
               ldm, pad_value);
}

/**
 * The AVX2 int8 GEMM is pairwise: `_mm256_madd_epi16` multiplies int16
 * lanes and adds each adjacent pair of products into one int32 lane.
 * Interleaving B rows k and k+1 byte by byte and sign-extending them to
 * int16 gives, per int32 lane, one column's (b[k], b[k+1]); broadcasting
 * A's (a[k], a[k+1]) as one int32 then yields a[k]*b[k] + a[k+1]*b[k+1]
 * for eight columns in one instruction -- two k steps per multiply,
 * where sign-extending to int32 and `_mm256_mullo_epi32` did one.
 *
 * Exact over the whole int8 range: a product is at most 128*128 = 2^14
 * and a pair sum at most 2^15, so nothing saturates (`maddubs` would:
 * its unsigned x signed pair sums clamp to int16).  Integer adds
 * commute exactly, so the result equals the scalar body's by value
 * whatever the lane structure.
 */

/** One A pair as the int32 `madd` broadcasts: k low, k+1 high. */
inline std::int32_t
packPair(std::int8_t lo, std::int8_t hi)
{
    return static_cast<std::int32_t>(
        static_cast<std::uint16_t>(lo) |
        static_cast<std::uint32_t>(static_cast<std::uint16_t>(hi))
            << 16);
}

/**
 * Pack one A row's kb values of a k block into pairs[0, (kb + 1) / 2),
 * the entries the tiles read; an odd kb pairs its last value with
 * zero.  Sign-extending 16 bytes to int16 lays out 8 pairs at once
 * (x86 is little-endian).
 */
__attribute__((target("avx2"))) inline void
packPairsAvx2(const std::int8_t *a, std::int64_t kb, std::int32_t *pairs)
{
    std::int64_t p = 0;
    for (; p + 16 <= kb; p += 16) {
        _mm256_storeu_si256(
            reinterpret_cast<__m256i *>(pairs + p / 2),
            _mm256_cvtepi8_epi16(_mm_loadu_si128(
                reinterpret_cast<const __m128i *>(a + p))));
    }
    for (; p < kb; p += 2)
        pairs[p / 2] = packPair(a[p], p + 1 < kb ? a[p + 1]
                                                 : std::int8_t{0});
}

__attribute__((target("avx2"))) inline __m128i
loadB16(const std::int8_t *row)
{
    return _mm_loadu_si128(reinterpret_cast<const __m128i *>(row));
}

__attribute__((target("avx2"))) inline __m128i
loadB8(const std::int8_t *row)
{
    return _mm_loadl_epi64(reinterpret_cast<const __m128i *>(row));
}

/** s += madd(broadcast(pair), v): two k steps over eight columns. */
__attribute__((target("avx2"))) inline __m256i
maddPair(__m256i s, std::int32_t pair, __m256i v)
{
    return _mm256_add_epi32(
        s, _mm256_madd_epi16(_mm256_set1_epi32(pair), v));
}

__attribute__((target("avx2"))) inline __m256i
loadC(const std::int32_t *c)
{
    return _mm256_loadu_si256(reinterpret_cast<const __m256i *>(c));
}

__attribute__((target("avx2"))) inline void
storeC(std::int32_t *c, __m256i s)
{
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(c), s);
}

/**
 * R A rows (their k pairs packed in w[r]) times the 8 B columns at
 * `b`, accumulated into c[r][0, 8): the 8-column step of the int8
 * tiles.
 */
template <int R>
__attribute__((target("avx2"))) inline void
cols8Int8Avx2(const std::int32_t *const (&w)[R], std::int64_t pairs,
              std::int64_t kb, const std::int8_t *b, std::int64_t ldb,
              std::int32_t *const (&c)[R])
{
    const __m128i zero = _mm_setzero_si128();
    __m256i s[R];
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r)
        s[r] = loadC(c[r]);
    for (std::int64_t q = 0; q < pairs; ++q) {
        const std::int8_t *row = b + 2 * q * ldb;
        const __m128i r1 = 2 * q + 1 < kb ? loadB8(row + ldb) : zero;
        const __m256i v =
            _mm256_cvtepi8_epi16(_mm_unpacklo_epi8(loadB8(row), r1));
#pragma GCC unroll 4
        for (int r = 0; r < R; ++r)
            s[r] = maddPair(s[r], w[r][q], v);
    }
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r)
        storeC(c[r], s[r]);
}

/**
 * The last `cols` < 8 columns: one 8-column step over `tail`, a copy
 * of those columns of the B block zero-padded to 8 (leading stride 8,
 * made once per block by `gemmInt8Avx2`), and a padded copy of C's, so
 * the tail runs vector code instead of a strided scalar loop and no
 * load or store passes the operands.  Integer sums are exact, so the
 * copied columns get the same values the scalar loop gave.
 */
template <int R>
__attribute__((target("avx2"))) inline void
tailInt8Avx2(const std::int32_t *const (&w)[R], std::int64_t pairs,
             std::int64_t kb, const std::int8_t *tail,
             std::int32_t *const (&c)[R], std::int64_t cols)
{
    alignas(32) std::int32_t ct[R][8] = {};
    const auto width = static_cast<std::size_t>(cols);
    std::int32_t *cp[R];
    for (int r = 0; r < R; ++r) {
        std::memcpy(ct[r], c[r], width * sizeof(std::int32_t));
        cp[r] = ct[r];
    }
    cols8Int8Avx2<R>(w, pairs, kb, tail, 8, cp);
    for (int r = 0; r < R; ++r)
        std::memcpy(c[r], ct[r], width * sizeof(std::int32_t));
}

/**
 * 4-row int8 tile: each interleaved pair of B rows (16 columns, two
 * int16 vectors) is shared across the four A rows; an 8-column step
 * covers the column tail, and `tail` (see `tailInt8Avx2`) the last
 * nb % 8 columns.
 */
__attribute__((target("avx2"))) void
tile4Int8Avx2(const std::int8_t *a0, const std::int8_t *a1,
              const std::int8_t *a2, const std::int8_t *a3,
              const std::int8_t *b, std::int64_t ldb, std::int32_t *c0,
              std::int32_t *c1, std::int32_t *c2, std::int32_t *c3,
              std::int64_t kb, std::int64_t nb, const std::int8_t *tail)
{
    std::int32_t w0[kKc / 2], w1[kKc / 2], w2[kKc / 2], w3[kKc / 2];
    packPairsAvx2(a0, kb, w0);
    packPairsAvx2(a1, kb, w1);
    packPairsAvx2(a2, kb, w2);
    packPairsAvx2(a3, kb, w3);
    const std::int64_t pairs = (kb + 1) / 2;
    const __m128i zero = _mm_setzero_si128();

    std::int64_t j = 0;
    for (; j + 16 <= nb; j += 16) {
        __m256i s0l = loadC(c0 + j), s0h = loadC(c0 + j + 8);
        __m256i s1l = loadC(c1 + j), s1h = loadC(c1 + j + 8);
        __m256i s2l = loadC(c2 + j), s2h = loadC(c2 + j + 8);
        __m256i s3l = loadC(c3 + j), s3h = loadC(c3 + j + 8);
        const std::int8_t *bp = b + j;
        for (std::int64_t q = 0; q < pairs; ++q) {
            const std::int8_t *r = bp + 2 * q * ldb;
            const __m128i r0 = loadB16(r);
            const __m128i r1 = 2 * q + 1 < kb ? loadB16(r + ldb) : zero;
            const __m256i lo =
                _mm256_cvtepi8_epi16(_mm_unpacklo_epi8(r0, r1));
            const __m256i hi =
                _mm256_cvtepi8_epi16(_mm_unpackhi_epi8(r0, r1));
            s0l = maddPair(s0l, w0[q], lo);
            s0h = maddPair(s0h, w0[q], hi);
            s1l = maddPair(s1l, w1[q], lo);
            s1h = maddPair(s1h, w1[q], hi);
            s2l = maddPair(s2l, w2[q], lo);
            s2h = maddPair(s2h, w2[q], hi);
            s3l = maddPair(s3l, w3[q], lo);
            s3h = maddPair(s3h, w3[q], hi);
        }
        storeC(c0 + j, s0l);
        storeC(c0 + j + 8, s0h);
        storeC(c1 + j, s1l);
        storeC(c1 + j + 8, s1h);
        storeC(c2 + j, s2l);
        storeC(c2 + j + 8, s2h);
        storeC(c3 + j, s3l);
        storeC(c3 + j + 8, s3h);
    }
    for (; j + 8 <= nb; j += 8) {
        const std::int32_t *w[4] = {w0, w1, w2, w3};
        std::int32_t *c[4] = {c0 + j, c1 + j, c2 + j, c3 + j};
        cols8Int8Avx2<4>(w, pairs, kb, b + j, ldb, c);
    }
    if (j < nb) {
        const std::int32_t *w[4] = {w0, w1, w2, w3};
        std::int32_t *c[4] = {c0 + j, c1 + j, c2 + j, c3 + j};
        tailInt8Avx2<4>(w, pairs, kb, tail, c, nb - j);
    }
}

__attribute__((target("avx2"))) void
tile1Int8Avx2(const std::int8_t *a, const std::int8_t *b,
              std::int64_t ldb, std::int32_t *c, std::int64_t kb,
              std::int64_t nb, const std::int8_t *tail)
{
    std::int32_t w[kKc / 2];
    packPairsAvx2(a, kb, w);
    const std::int64_t pairs = (kb + 1) / 2;
    const __m128i zero = _mm_setzero_si128();

    std::int64_t j = 0;
    for (; j + 16 <= nb; j += 16) {
        __m256i sl = loadC(c + j), sh = loadC(c + j + 8);
        const std::int8_t *bp = b + j;
        for (std::int64_t q = 0; q < pairs; ++q) {
            const std::int8_t *r = bp + 2 * q * ldb;
            const __m128i r0 = loadB16(r);
            const __m128i r1 = 2 * q + 1 < kb ? loadB16(r + ldb) : zero;
            sl = maddPair(sl, w[q],
                          _mm256_cvtepi8_epi16(_mm_unpacklo_epi8(r0, r1)));
            sh = maddPair(sh, w[q],
                          _mm256_cvtepi8_epi16(_mm_unpackhi_epi8(r0, r1)));
        }
        storeC(c + j, sl);
        storeC(c + j + 8, sh);
    }
    const std::int32_t *wr[1] = {w};
    for (; j + 8 <= nb; j += 8) {
        std::int32_t *cr[1] = {c + j};
        cols8Int8Avx2<1>(wr, pairs, kb, b + j, ldb, cr);
    }
    if (j < nb) {
        std::int32_t *cr[1] = {c + j};
        tailInt8Avx2<1>(wr, pairs, kb, tail, cr, nb - j);
    }
}

__attribute__((target("avx2"))) void
gemmInt8Avx2(const std::int8_t *a, std::int64_t lda,
             const std::int8_t *b, std::int64_t ldb, std::int32_t *c,
             std::int64_t ldc, std::int64_t m, std::int64_t k,
             std::int64_t n)
{
    for (std::int64_t i = 0; i < m; ++i)
        std::memset(c + i * ldc, 0,
                    static_cast<std::size_t>(n) * sizeof(std::int32_t));
    for (std::int64_t jc = 0; jc < n; jc += kNc) {
        const std::int64_t nb = std::min(kNc, n - jc);
        for (std::int64_t pc = 0; pc < k; pc += kKc) {
            const std::int64_t kb = std::min(kKc, k - pc);
            const std::int8_t *bp = b + pc * ldb + jc;
            // The block's last nb % 8 columns, zero-padded to 8, once
            // for every row tile.
            alignas(16) std::int8_t tail[kKc * 8];
            const std::int64_t cols = nb % 8;
            if (cols > 0) {
                std::memset(tail, 0, static_cast<std::size_t>(kb * 8));
                for (std::int64_t p = 0; p < kb; ++p)
                    std::memcpy(tail + p * 8, bp + p * ldb + nb - cols,
                                static_cast<std::size_t>(cols));
            }
            std::int64_t i = 0;
            for (; i + 4 <= m; i += 4) {
                const std::int8_t *ap = a + i * lda + pc;
                std::int32_t *cp = c + i * ldc + jc;
                tile4Int8Avx2(ap, ap + lda, ap + 2 * lda, ap + 3 * lda,
                              bp, ldb, cp, cp + ldc, cp + 2 * ldc,
                              cp + 3 * ldc, kb, nb, tail);
            }
            for (; i < m; ++i) {
                tile1Int8Avx2(a + i * lda + pc, bp, ldb,
                              c + i * ldc + jc, kb, nb, tail);
            }
        }
    }
}

/**
 * Below this many A rows the VNNI table runs the `madd` GEMM above
 * instead: packing B into offset quads costs about one pass over B,
 * which one to four rows do not earn back.  Medians of micro_kernels
 * on a 4-vCPU Xeon, m x 800 x 500, madd vs packed: m = 4 takes 38 us
 * vs 55-63 us, m = 5 58 us vs 55 us, m = 6 75 us vs 59 us, m = 7
 * 88 us vs 65 us, m = 8 79 us vs 68 us.
 */
constexpr std::int64_t kVnniMinRows = 5;

#include "tensor/kernels_vnni.inc"

/**
 * AVX-VNNI (CPUID leaf 7 sub-leaf 1, EAX bit 4), read directly:
 * not every supported compiler knows `__builtin_cpu_supports
 * ("avxvnni")`.  The VEX encoding needs only the AVX state that the
 * AVX2 check already confirmed the OS saves.
 */
bool
hasAvxVnni()
{
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    return __get_cpuid_count(7, 1, &eax, &ebx, &ecx, &edx) != 0 &&
           (eax & (1u << 4)) != 0;
}

/**
 * AVX-512 with VNNI: what the 512-bit fp32 tile (AVX512F) and int8
 * tile (AVX512-VNNI, whose 16-column masks and loads are AVX512F) run
 * on.  Every AVX512-VNNI host has AVX512F, so this is also the whole
 * AVX512-VNNI half of the `AvxVnni` availability test.
 */
bool
hasAvx512Vnni()
{
    return __builtin_cpu_supports("avx512f") &&
           __builtin_cpu_supports("avx512vl") &&
           __builtin_cpu_supports("avx512vnni");
}

#endif // FPSA_KERNELS_X86

// ------------------------------------------------------------------- NEON

#if FPSA_KERNELS_NEON

/** 4-row fp32 tile, 4-lane fused multiply-add (vfmaq). */
void
tile4Neon(const float *a0, const float *a1, const float *a2,
          const float *a3, const float *b, std::int64_t ldb, float *c0,
          float *c1, float *c2, float *c3, std::int64_t kb,
          std::int64_t nb)
{
    std::int64_t j = 0;
    for (; j + 4 <= nb; j += 4) {
        float32x4_t s0 = vld1q_f32(c0 + j);
        float32x4_t s1 = vld1q_f32(c1 + j);
        float32x4_t s2 = vld1q_f32(c2 + j);
        float32x4_t s3 = vld1q_f32(c3 + j);
        const float *bp = b + j;
        for (std::int64_t p = 0; p < kb; ++p) {
            const float32x4_t bv = vld1q_f32(bp + p * ldb);
            s0 = vfmaq_n_f32(s0, bv, a0[p]);
            s1 = vfmaq_n_f32(s1, bv, a1[p]);
            s2 = vfmaq_n_f32(s2, bv, a2[p]);
            s3 = vfmaq_n_f32(s3, bv, a3[p]);
        }
        vst1q_f32(c0 + j, s0);
        vst1q_f32(c1 + j, s1);
        vst1q_f32(c2 + j, s2);
        vst1q_f32(c3 + j, s3);
    }
    for (; j < nb; ++j) {
        float s0 = c0[j], s1 = c1[j], s2 = c2[j], s3 = c3[j];
        for (std::int64_t p = 0; p < kb; ++p) {
            const float bv = b[p * ldb + j];
            s0 = __builtin_fmaf(a0[p], bv, s0);
            s1 = __builtin_fmaf(a1[p], bv, s1);
            s2 = __builtin_fmaf(a2[p], bv, s2);
            s3 = __builtin_fmaf(a3[p], bv, s3);
        }
        c0[j] = s0;
        c1[j] = s1;
        c2[j] = s2;
        c3[j] = s3;
    }
}

void
tile1Neon(const float *a, const float *b, std::int64_t ldb, float *c,
          std::int64_t kb, std::int64_t nb)
{
    std::int64_t j = 0;
    for (; j + 4 <= nb; j += 4) {
        float32x4_t s = vld1q_f32(c + j);
        const float *bp = b + j;
        for (std::int64_t p = 0; p < kb; ++p)
            s = vfmaq_n_f32(s, vld1q_f32(bp + p * ldb), a[p]);
        vst1q_f32(c + j, s);
    }
    for (; j < nb; ++j) {
        float s = c[j];
        for (std::int64_t p = 0; p < kb; ++p)
            s = __builtin_fmaf(a[p], b[p * ldb + j], s);
        c[j] = s;
    }
}

void
gemmNeon(const float *a, std::int64_t lda, const float *b,
         std::int64_t ldb, float *c, std::int64_t ldc, std::int64_t m,
         std::int64_t k, std::int64_t n)
{
    for (std::int64_t i = 0; i < m; ++i)
        std::memset(c + i * ldc, 0,
                    static_cast<std::size_t>(n) * sizeof(float));
    for (std::int64_t jc = 0; jc < n; jc += kNc) {
        const std::int64_t nb = std::min(kNc, n - jc);
        for (std::int64_t pc = 0; pc < k; pc += kKc) {
            const std::int64_t kb = std::min(kKc, k - pc);
            const float *bp = b + pc * ldb + jc;
            std::int64_t i = 0;
            for (; i + 4 <= m; i += 4) {
                const float *ap = a + i * lda + pc;
                float *cp = c + i * ldc + jc;
                tile4Neon(ap, ap + lda, ap + 2 * lda, ap + 3 * lda, bp,
                          ldb, cp, cp + ldc, cp + 2 * ldc, cp + 3 * ldc,
                          kb, nb);
            }
            for (; i < m; ++i) {
                tile1Neon(a + i * lda + pc, bp, ldb, c + i * ldc + jc,
                          kb, nb);
            }
        }
    }
}

#endif // FPSA_KERNELS_NEON

// -------------------------------------------------------------- selection

/** Variants this binary carries code for. */
bool
compiledIn(KernelIsa isa)
{
    switch (isa) {
      case KernelIsa::Auto:
      case KernelIsa::Scalar:
        return true;
      case KernelIsa::Avx2:
      case KernelIsa::AvxVnni:
#if FPSA_KERNELS_X86
        return true;
#else
        return false;
#endif
      case KernelIsa::Neon:
#if FPSA_KERNELS_NEON
        return true;
#else
        return false;
#endif
    }
    return false;
}

/** What the executing CPU supports (of the compiled-in variants). */
bool
cpuSupports(KernelIsa isa)
{
    switch (isa) {
      case KernelIsa::Auto:
      case KernelIsa::Scalar:
        return true;
      case KernelIsa::Avx2:
#if FPSA_KERNELS_X86
        return __builtin_cpu_supports("avx2") &&
               __builtin_cpu_supports("fma");
#else
        return false;
#endif
      case KernelIsa::AvxVnni:
#if FPSA_KERNELS_X86
        return cpuSupports(KernelIsa::Avx2) &&
               (hasAvxVnni() || hasAvx512Vnni());
#else
        return false;
#endif
      case KernelIsa::Neon:
#if FPSA_KERNELS_NEON
        return true; // baseline on aarch64
#else
        return false;
#endif
    }
    return false;
}

/**
 * The `FPSA_KERNEL_ISA` override, read once at first use.  `Auto` (or
 * an unset/unparseable value) imposes no cap; anything else limits the
 * available variants to {Scalar, cap}.
 */
KernelIsa
envCap()
{
    static const KernelIsa cap = [] {
        const char *env = std::getenv("FPSA_KERNEL_ISA");
        if (env == nullptr || *env == '\0')
            return KernelIsa::Auto;
        KernelIsa parsed = KernelIsa::Auto;
        if (!parseKernelIsa(env, parsed)) {
            warn("FPSA_KERNEL_ISA='%s' is not a known ISA "
                 "(auto/scalar/avx2/avxvnni/neon); ignoring",
                 env);
            return KernelIsa::Auto;
        }
        return parsed;
    }();
    return cap;
}


const KernelTable kScalarTable{KernelIsa::Scalar, 0, &gemmScalar,
                               &im2colScalar, &gemmInt8Scalar};
#if FPSA_KERNELS_X86
const KernelTable kAvx2Table{KernelIsa::Avx2, 256, &gemmAvx2, &im2colAvx2,
                             &gemmInt8Avx2};
// AVX-VNNI without AVX-512: the AVX2 fp32 functions themselves.
const KernelTable kAvxVnniTable{KernelIsa::AvxVnni, 256, &gemmAvx2,
                                &im2colAvx2, &gemmInt8AvxVnni};
// AVX-512 with VNNI: 512-bit tiles whose fp32 bits equal gemmAvx2's.
const KernelTable kAvx512VnniTable{KernelIsa::AvxVnni, 512, &gemmAvx512,
                                   &im2colAvx2, &gemmInt8Avx512};
#endif
#if FPSA_KERNELS_NEON
const KernelTable kNeonTable{KernelIsa::Neon, 128, &gemmNeon,
                             &im2colScalar, &gemmInt8Scalar};
#endif

/** The order `Auto` tries the vector tables in, best first. */
constexpr KernelIsa kAutoPreference[] = {KernelIsa::AvxVnni,
                                         KernelIsa::Avx2, KernelIsa::Neon};

} // namespace

const char *
kernelIsaName(KernelIsa isa)
{
    switch (isa) {
      case KernelIsa::Auto: return "auto";
      case KernelIsa::Scalar: return "scalar";
      case KernelIsa::Avx2: return "avx2";
      case KernelIsa::AvxVnni: return "avxvnni";
      case KernelIsa::Neon: return "neon";
    }
    return "?";
}

bool
parseKernelIsa(const std::string &name, KernelIsa &out)
{
    std::string lower;
    lower.reserve(name.size());
    for (char c : name)
        lower.push_back(static_cast<char>(
            std::tolower(static_cast<unsigned char>(c))));
    for (KernelIsa isa : {KernelIsa::Auto, KernelIsa::Scalar,
                          KernelIsa::Avx2, KernelIsa::AvxVnni,
                          KernelIsa::Neon}) {
        if (lower == kernelIsaName(isa)) {
            out = isa;
            return true;
        }
    }
    return false;
}

bool
kernelIsaAvailable(KernelIsa isa)
{
    if (isa == KernelIsa::Auto || isa == KernelIsa::Scalar)
        return true;
    if (!compiledIn(isa) || !cpuSupports(isa))
        return false;
    const KernelIsa cap = envCap();
    return cap == KernelIsa::Auto || cap == isa;
}

KernelIsa
resolveKernelIsa(KernelIsa requested)
{
    if (requested == KernelIsa::Auto) {
        // Best first; the env cap can mask a better table (avx2 masks
        // avxvnni), so take the first one that is actually available.
        for (KernelIsa isa : kAutoPreference)
            if (kernelIsaAvailable(isa))
                return isa;
        return KernelIsa::Scalar;
    }
    return kernelIsaAvailable(requested) ? requested
                                         : KernelIsa::Scalar;
}

const char *
precisionModeName(PrecisionMode mode)
{
    switch (mode) {
      case PrecisionMode::Fp32: return "fp32";
      case PrecisionMode::Int8: return "int8";
      case PrecisionMode::Int6: return "int6";
    }
    return "?";
}

bool
parsePrecisionMode(const std::string &name, PrecisionMode &out)
{
    std::string lower;
    lower.reserve(name.size());
    for (char c : name)
        lower.push_back(static_cast<char>(
            std::tolower(static_cast<unsigned char>(c))));
    for (PrecisionMode mode : {PrecisionMode::Fp32, PrecisionMode::Int8,
                               PrecisionMode::Int6}) {
        if (lower == precisionModeName(mode)) {
            out = mode;
            return true;
        }
    }
    return false;
}

int
precisionActivationBits(PrecisionMode mode)
{
    switch (mode) {
      case PrecisionMode::Fp32: return 0;
      case PrecisionMode::Int8: return 8;
      case PrecisionMode::Int6: return 6;
    }
    return 0;
}

const KernelTable &
kernelTable(KernelIsa isa)
{
    switch (resolveKernelIsa(isa)) {
#if FPSA_KERNELS_X86
      case KernelIsa::Avx2:
        return kAvx2Table;
      case KernelIsa::AvxVnni: {
        static const KernelTable &vnni =
            hasAvx512Vnni() ? kAvx512VnniTable : kAvxVnniTable;
        return vnni;
      }
#endif
#if FPSA_KERNELS_NEON
      case KernelIsa::Neon:
        return kNeonTable;
#endif
      default:
        return kScalarTable;
    }
}

void
im2colChwInt8(const std::int8_t *input, std::int64_t ci, std::int64_t hi,
              std::int64_t wi, std::int64_t kh, std::int64_t kw,
              std::int64_t stride, std::int64_t pad, std::int64_t ho,
              std::int64_t wo, std::int8_t *columns, std::int64_t ldm)
{
    im2colBody(input, ci, hi, wi, kh, kw, stride, pad, ho, wo, columns,
               ldm, std::int8_t{0});
}

} // namespace fpsa
