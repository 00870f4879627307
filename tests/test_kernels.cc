/**
 * @file
 * Tests for the runtime-dispatched kernel layer (tensor/kernels.hh):
 * ISA name/parse round-trips, resolution and availability semantics,
 * golden equivalence of every available vector variant against the
 * scalar baseline, bit-exactness of the vector fp32 GEMMs against a
 * naive fused multiply-add loop on every tile path, the per-table
 * determinism contract (a column's bits do not depend on the call's
 * width), exactness and cross-table
 * bit-identity of the int8 GEMM (every remainder path, strided
 * operands, the int8 range extremes and the VNNI table's +128
 * offset), and im2col equivalence across tables and against a naive
 * per-element oracle.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "tensor/kernels.hh"

namespace fpsa
{
namespace
{

std::vector<float>
randomFloats(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<float> v(n);
    for (float &x : v)
        x = static_cast<float>(rng.normal(0.0, 1.0));
    return v;
}

std::vector<std::int8_t>
randomInt8(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::int8_t> v(n);
    for (std::int8_t &x : v)
        x = static_cast<std::int8_t>(
            static_cast<int>(rng.uniform(0.0, 255.0)) - 128);
    return v;
}

/** Every ISA whose table can actually run on this host. */
std::vector<KernelIsa>
availableIsas()
{
    std::vector<KernelIsa> isas{KernelIsa::Scalar};
    for (KernelIsa isa :
         {KernelIsa::Avx2, KernelIsa::AvxVnni, KernelIsa::Neon})
        if (kernelIsaAvailable(isa))
            isas.push_back(isa);
    return isas;
}

TEST(KernelIsaApi, NameParseRoundTrip)
{
    for (KernelIsa isa : {KernelIsa::Auto, KernelIsa::Scalar,
                          KernelIsa::Avx2, KernelIsa::AvxVnni,
                          KernelIsa::Neon}) {
        KernelIsa parsed;
        ASSERT_TRUE(parseKernelIsa(kernelIsaName(isa), parsed));
        EXPECT_EQ(parsed, isa);
    }
    KernelIsa out;
    EXPECT_FALSE(parseKernelIsa("sse9", out));
    EXPECT_TRUE(parseKernelIsa("AVX2", out)); // case-insensitive
    EXPECT_EQ(out, KernelIsa::Avx2);
    EXPECT_TRUE(parseKernelIsa("AvxVnni", out));
    EXPECT_EQ(out, KernelIsa::AvxVnni);
}

TEST(KernelIsaApi, PrecisionNameParseRoundTrip)
{
    for (PrecisionMode mode : {PrecisionMode::Fp32, PrecisionMode::Int8,
                               PrecisionMode::Int6}) {
        PrecisionMode parsed;
        ASSERT_TRUE(parsePrecisionMode(precisionModeName(mode), parsed));
        EXPECT_EQ(parsed, mode);
    }
    PrecisionMode out;
    EXPECT_FALSE(parsePrecisionMode("fp16", out));
    EXPECT_EQ(precisionActivationBits(PrecisionMode::Fp32), 0);
    EXPECT_EQ(precisionActivationBits(PrecisionMode::Int8), 8);
    EXPECT_EQ(precisionActivationBits(PrecisionMode::Int6), 6);
}

TEST(KernelIsaApi, ResolutionNeverReturnsAutoAndFallsBackToScalar)
{
    EXPECT_TRUE(kernelIsaAvailable(KernelIsa::Scalar));
    EXPECT_TRUE(kernelIsaAvailable(KernelIsa::Auto));
    const KernelIsa best = resolveKernelIsa(KernelIsa::Auto);
    EXPECT_NE(best, KernelIsa::Auto);
    EXPECT_TRUE(kernelIsaAvailable(best));
    for (KernelIsa isa :
         {KernelIsa::Avx2, KernelIsa::AvxVnni, KernelIsa::Neon}) {
        const KernelIsa resolved = resolveKernelIsa(isa);
        if (kernelIsaAvailable(isa))
            EXPECT_EQ(resolved, isa);
        else
            EXPECT_EQ(resolved, KernelIsa::Scalar);
    }
    // The table honors the resolution, binds every slot and names its
    // register width.
    for (KernelIsa isa : availableIsas()) {
        const KernelTable &t = kernelTable(isa);
        EXPECT_EQ(t.isa, isa);
        EXPECT_NE(t.gemmRowMajor, nullptr);
        EXPECT_NE(t.im2colChw, nullptr);
        EXPECT_NE(t.gemmInt8, nullptr);
        switch (isa) {
          case KernelIsa::Scalar: EXPECT_EQ(t.vectorBits, 0); break;
          case KernelIsa::Neon: EXPECT_EQ(t.vectorBits, 128); break;
          case KernelIsa::Avx2: EXPECT_EQ(t.vectorBits, 256); break;
          default:
            EXPECT_TRUE(t.vectorBits == 256 || t.vectorBits == 512)
                << t.vectorBits;
        }
    }
}

TEST(KernelIsaApi, AutoResolvesToTheBestTableTheCapLeavesAvailable)
{
    // Under FPSA_KERNEL_ISA=avx2 on a VNNI host the cap masks AvxVnni;
    // Auto must then take Avx2, not drop to Scalar.
    KernelIsa expected = KernelIsa::Scalar;
    for (KernelIsa isa :
         {KernelIsa::AvxVnni, KernelIsa::Avx2, KernelIsa::Neon}) {
        if (kernelIsaAvailable(isa)) {
            expected = isa;
            break;
        }
    }
    EXPECT_EQ(resolveKernelIsa(KernelIsa::Auto), expected);
    EXPECT_EQ(kernelTable(KernelIsa::Auto).isa, expected);
}

/**
 * [m x k] * [k x n] through two tables into C rows padded to
 * ldc = n + 3, which start as a sentinel: every element, padding
 * included, must carry the same bits.
 */
void
expectFp32GemmBitsEqual(const KernelTable &x, const KernelTable &y,
                        std::int64_t m, std::int64_t k, std::int64_t n,
                        std::uint64_t seed)
{
    const std::int64_t ldc = n + 3;
    const auto a = randomFloats(static_cast<std::size_t>(m * k), seed);
    const auto b = randomFloats(static_cast<std::size_t>(k * n), seed + 1);
    std::vector<float> cx(static_cast<std::size_t>(m * ldc), -1234.5f);
    std::vector<float> cy(cx);
    x.gemmRowMajor(a.data(), k, b.data(), n, cx.data(), ldc, m, k, n);
    y.gemmRowMajor(a.data(), k, b.data(), n, cy.data(), ldc, m, k, n);
    for (std::size_t i = 0; i < cx.size(); ++i)
        ASSERT_EQ(std::bit_cast<std::uint32_t>(cx[i]),
                  std::bit_cast<std::uint32_t>(cy[i]))
            << kernelIsaName(x.isa) << " (" << x.vectorBits << "-bit) vs "
            << kernelIsaName(y.isa) << " m=" << m << " k=" << k
            << " n=" << n << " element " << i / static_cast<std::size_t>(ldc)
            << "," << i % static_cast<std::size_t>(ldc);
}

TEST(KernelIsaApi, AutoPrefersVnniWhoseFp32GemmEqualsAvx2BitForBit)
{
    if (!kernelIsaAvailable(KernelIsa::AvxVnni))
        GTEST_SKIP() << "no AVX-VNNI or AVX512-VNNI+VL on this host (or "
                        "FPSA_KERNEL_ISA masks it): the avxvnni table "
                        "went untested";
    EXPECT_EQ(resolveKernelIsa(KernelIsa::Auto), KernelIsa::AvxVnni);
    if (!kernelIsaAvailable(KernelIsa::Avx2))
        GTEST_SKIP() << "FPSA_KERNEL_ISA masks the avx2 table";
    // The VNNI table shares AVX2's im2col and brings its own int8 GEMM.
    // Its fp32 GEMM is AVX2's own function or, with AVX-512, a 512-bit
    // tile that must give the same bits, so fp32 plans do not depend on
    // which of the two tables runs them.
    const KernelTable &vnni = kernelTable(KernelIsa::AvxVnni);
    const KernelTable &avx2 = kernelTable(KernelIsa::Avx2);
    EXPECT_EQ(vnni.im2colChw, avx2.im2colChw);
    EXPECT_NE(vnni.gemmInt8, avx2.gemmInt8);
    // VGG17's conv GEMMs (co x ci*9 x h*w), two batch-coalesced widths,
    // and its fc layer at batch 1 and 4.
    const std::int64_t vgg17[][3] = {
        {48, 27, 1024}, {48, 432, 1024}, {96, 432, 256}, {96, 864, 256},
        {96, 864, 64},  {96, 864, 16},   {96, 864, 48},  {96, 864, 192},
        {1, 384, 10},   {4, 384, 10},
    };
    std::uint64_t seed = 700;
    for (const auto &shape : vgg17) {
        seed += 2;
        expectFp32GemmBitsEqual(vnni, avx2, shape[0], shape[1], shape[2],
                                seed);
        if (HasFatalFailure())
            return;
    }
    // Edge shapes: both tables' row tiles and tails, one and two k
    // blocks, and every column path (the 32-column body, 16-column step
    // and masked tail; the 16- and 8-column steps and the scalar tail).
    for (std::int64_t m : {1, 5, 6, 11, 12, 13, 24, 25}) {
        for (std::int64_t k : {1, 129}) {
            for (std::int64_t n :
                 {1, 7, 8, 15, 16, 17, 31, 32, 33, 47, 48, 49, 531}) {
                seed += 2;
                expectFp32GemmBitsEqual(vnni, avx2, m, k, n, seed);
                if (HasFatalFailure())
                    return;
            }
        }
    }
}

TEST(KernelTableGolden, VectorGemmMatchesScalarWithinTolerance)
{
    const KernelTable &scalar = kernelTable(KernelIsa::Scalar);
    // Odd shapes so full tiles, remainder rows and remainder columns
    // are all exercised.
    const std::int64_t m = 13, k = 517, n = 37;
    const auto a = randomFloats(static_cast<std::size_t>(m * k), 1);
    const auto b = randomFloats(static_cast<std::size_t>(k * n), 2);
    std::vector<float> want(static_cast<std::size_t>(m * n));
    scalar.gemmRowMajor(a.data(), k, b.data(), n, want.data(), n, m, k,
                        n);
    for (KernelIsa isa : availableIsas()) {
        const KernelTable &t = kernelTable(isa);
        std::vector<float> got(static_cast<std::size_t>(m * n), -1.0f);
        t.gemmRowMajor(a.data(), k, b.data(), n, got.data(), n, m, k,
                       n);
        for (std::size_t i = 0; i < got.size(); ++i) {
            const float tol =
                1e-4f * std::max(1.0f, std::fabs(want[i]));
            ASSERT_NEAR(got[i], want[i], tol)
                << kernelIsaName(isa) << " element " << i;
        }
    }
}

TEST(KernelTableGolden, ColumnBitsIndependentOfCallWidthPerTable)
{
    // The determinism contract the batched serving path relies on:
    // within one table, computing a column alone gives the same bits
    // as computing it inside a wide call.  m crosses the vector tables'
    // row tiles (6 and 12 rows) and their tails; n = 531 crosses the
    // 512-column block.
    const std::int64_t k = 333;
    std::uint64_t seed = 3;
    for (std::int64_t m : {1, 5, 6, 7, 12, 13, 24, 25}) {
        for (std::int64_t n : {29, 531}) {
            seed += 2;
            const auto a =
                randomFloats(static_cast<std::size_t>(m * k), seed);
            const auto b =
                randomFloats(static_cast<std::size_t>(k * n), seed + 1);
            for (KernelIsa isa : availableIsas()) {
                const KernelTable &t = kernelTable(isa);
                std::vector<float> wide(static_cast<std::size_t>(m * n));
                t.gemmRowMajor(a.data(), k, b.data(), n, wide.data(), n,
                               m, k, n);
                for (std::int64_t j = 0; j < n; ++j) {
                    std::vector<float> narrow(static_cast<std::size_t>(m));
                    t.gemmRowMajor(a.data(), k, b.data() + j, n,
                                   narrow.data(), 1, m, k, 1);
                    for (std::int64_t i = 0; i < m; ++i)
                        ASSERT_EQ(
                            narrow[static_cast<std::size_t>(i)],
                            wide[static_cast<std::size_t>(i * n + j)])
                            << kernelIsaName(isa) << " m=" << m
                            << " n=" << n << " " << i << "," << j;
                }
            }
        }
    }
}

/**
 * The vector tables' fp32 oracle: every element is one fused
 * multiply-add chain s = fma(a[i][p], b[p][j], s), k ascending from
 * +0, on strided operands.
 */
std::vector<float>
naiveFusedGemm(const std::vector<float> &a, std::int64_t lda,
               const std::vector<float> &b, std::int64_t ldb,
               std::int64_t m, std::int64_t k, std::int64_t n)
{
    std::vector<float> c(static_cast<std::size_t>(m * n));
    for (std::int64_t i = 0; i < m; ++i) {
        for (std::int64_t j = 0; j < n; ++j) {
            float s = 0.0f;
            for (std::int64_t p = 0; p < k; ++p)
                s = std::fma(a[static_cast<std::size_t>(i * lda + p)],
                             b[static_cast<std::size_t>(p * ldb + j)], s);
            c[static_cast<std::size_t>(i * n + j)] = s;
        }
    }
    return c;
}

/**
 * Every non-scalar table's [m x k] * [k x n] with leading strides
 * (lda, ldb, ldc) equals the fused oracle bit for bit, and leaves C's
 * padding columns [n, ldc) untouched.
 */
void
expectVectorGemmFused(std::int64_t m, std::int64_t k, std::int64_t n,
                      std::int64_t lda, std::int64_t ldb,
                      std::int64_t ldc, std::uint64_t seed)
{
    const auto a = randomFloats(static_cast<std::size_t>(m * lda), seed);
    const auto b =
        randomFloats(static_cast<std::size_t>(k * ldb), seed + 1);
    const auto want = naiveFusedGemm(a, lda, b, ldb, m, k, n);
    constexpr float kSentinel = -1234.5f;
    for (KernelIsa isa : availableIsas()) {
        if (isa == KernelIsa::Scalar)
            continue; // unfused multiply-add: not this oracle's table
        std::vector<float> got(static_cast<std::size_t>(m * ldc),
                               kSentinel);
        kernelTable(isa).gemmRowMajor(a.data(), lda, b.data(), ldb,
                                      got.data(), ldc, m, k, n);
        for (std::int64_t i = 0; i < m; ++i) {
            for (std::int64_t j = 0; j < ldc; ++j) {
                const float g = got[static_cast<std::size_t>(i * ldc + j)];
                const float w =
                    j < n ? want[static_cast<std::size_t>(i * n + j)]
                          : kSentinel;
                ASSERT_EQ(std::bit_cast<std::uint32_t>(g),
                          std::bit_cast<std::uint32_t>(w))
                    << kernelIsaName(isa) << " m=" << m << " k=" << k
                    << " n=" << n << " ldc=" << ldc << " element " << i
                    << "," << j;
            }
        }
    }
}

TEST(KernelTableGolden, VectorGemmEqualsNaiveFusedLoopOnEveryTilePath)
{
    // m = 1..13 covers the 6- and 12-row tiles and every row tail; k
    // covers one step, a full 128-deep k block and one past it, and two
    // blocks plus one; n = 1..40 and 47..49, 64, 65 cover the 256-bit
    // 16-column body, 8-column step and scalar tail and the 512-bit
    // 32-column body, 16-column step and masked tail, and 531 / 1030
    // cross the 512-column block.  m = 14..25 (a second 12-row tile,
    // its tails, and a third tile's first row) runs one and two k
    // blocks at the narrow widths: the naive oracle grows with m*k*n,
    // and this sweep also runs under the sanitizers.
    std::vector<std::int64_t> widths;
    for (std::int64_t n = 1; n <= 40; ++n)
        widths.push_back(n);
    for (std::int64_t n : {47, 48, 49, 64, 65, 531, 1030})
        widths.push_back(n);
    std::uint64_t seed = 100;
    for (std::int64_t k : {1, 2, 127, 128, 129, 257}) {
        for (std::int64_t m = 1; m <= 25; ++m) {
            for (std::int64_t n : widths) {
                if (m > 13 && (n > 65 || (k != 1 && k != 129)))
                    continue;
                seed += 2;
                expectVectorGemmFused(m, k, n, k, n, n, seed);
                if (HasFatalFailure())
                    return;
            }
        }
    }
    // Strided operands: A, B and C rows all padded past the data; n
    // = 37 and 53 end in the 512-bit tile's masked tail (after the
    // 32-column body, and after it and the 16-column step).
    expectVectorGemmFused(13, 129, 37, 131, 45, 41, 7);
    expectVectorGemmFused(25, 129, 53, 131, 61, 57, 9);
}

/** Naive int32 triple loop: the oracle every int8 table must equal. */
std::vector<std::int32_t>
naiveGemmInt8(const std::vector<std::int8_t> &a,
              const std::vector<std::int8_t> &b, std::int64_t m,
              std::int64_t k, std::int64_t n)
{
    std::vector<std::int32_t> c(static_cast<std::size_t>(m * n));
    for (std::int64_t i = 0; i < m; ++i) {
        for (std::int64_t j = 0; j < n; ++j) {
            std::int32_t acc = 0;
            for (std::int64_t p = 0; p < k; ++p)
                acc += static_cast<std::int32_t>(
                           a[static_cast<std::size_t>(i * k + p)]) *
                       static_cast<std::int32_t>(
                           b[static_cast<std::size_t>(p * n + j)]);
            c[static_cast<std::size_t>(i * n + j)] = acc;
        }
    }
    return c;
}

/** Every available table's contiguous [m x k] * [k x n] equals naive. */
void
expectInt8GemmExact(const std::vector<std::int8_t> &a,
                    const std::vector<std::int8_t> &b, std::int64_t m,
                    std::int64_t k, std::int64_t n)
{
    const auto want = naiveGemmInt8(a, b, m, k, n);
    for (KernelIsa isa : availableIsas()) {
        const KernelTable &t = kernelTable(isa);
        std::vector<std::int32_t> got(static_cast<std::size_t>(m * n),
                                      -7);
        t.gemmInt8(a.data(), k, b.data(), n, got.data(), n, m, k, n);
        for (std::size_t i = 0; i < got.size(); ++i)
            ASSERT_EQ(got[i], want[i])
                << kernelIsaName(isa) << " m=" << m << " k=" << k
                << " n=" << n << " element " << i;
    }
}

TEST(KernelTableInt8, ExactAgainstNaiveAndBitIdenticalAcrossTables)
{
    const std::int64_t m = 11, k = 259, n = 23;
    expectInt8GemmExact(
        randomInt8(static_cast<std::size_t>(m * k), 5),
        randomInt8(static_cast<std::size_t>(k * n), 6), m, k, n);
}

TEST(KernelTableInt8, ExactOnEveryRemainderPath)
{
    // The vector int8 GEMM pairs k steps, blocks k by 128 and tiles 4
    // rows x 16 (then 8) columns.  Sweep odd k, k blocks whose last
    // block is odd (129 = 128 + 1, 255 = 128 + 127), m tails of 1-3
    // rows beside full tiles, and n from 1 to 17 around the column
    // steps plus one width past the 512-column block.
    std::uint64_t seed = 20;
    for (std::int64_t k : {1, 2, 3, 17, 128, 129, 255}) {
        for (std::int64_t m : {1, 2, 3, 4, 5, 7}) {
            std::vector<std::int64_t> widths;
            for (std::int64_t n = 1; n <= 17; ++n)
                widths.push_back(n);
            widths.push_back(531);
            for (std::int64_t n : widths) {
                seed += 2;
                expectInt8GemmExact(
                    randomInt8(static_cast<std::size_t>(m * k), seed),
                    randomInt8(static_cast<std::size_t>(k * n), seed + 1),
                    m, k, n);
                if (HasFatalFailure())
                    return;
            }
        }
    }
}

TEST(KernelTableInt8, ExactAtTheInt8RangeExtremes)
{
    // All -128, -1, 0 or 127 operands.  (-128) * (-128) = 2^14, so a
    // pair of products reaches 2^15, one past int16's range: a design
    // whose pair sums saturate to int16 (maddubs) would clamp it.  The
    // VNNI table sees B + 128 up to 255 against A down to -128, and its
    // -128 * rowsum seed must cancel the offset whatever the signs.
    const std::int64_t m = 5, k = 259, n = 17;
    for (std::int8_t av : {std::int8_t{-128}, std::int8_t{-1},
                           std::int8_t{0}, std::int8_t{127}}) {
        for (std::int8_t bv : {std::int8_t{-128}, std::int8_t{-1},
                               std::int8_t{127}}) {
            expectInt8GemmExact(
                std::vector<std::int8_t>(static_cast<std::size_t>(m * k),
                                         av),
                std::vector<std::int8_t>(static_cast<std::size_t>(k * n),
                                         bv),
                m, k, n);
        }
    }
}

/**
 * One strided int8 GEMM through `isa` and through the scalar table,
 * compared bit for bit.  Every leading dimension is padded past its
 * rows, and C starts as garbage, which the GEMM must overwrite.
 */
void
expectInt8MatchesScalarStrided(KernelIsa isa, std::int64_t m,
                               std::int64_t k, std::int64_t n,
                               std::int64_t lda, std::int64_t ldb,
                               std::int64_t ldc, std::uint64_t seed)
{
    const auto a = randomInt8(static_cast<std::size_t>(m * lda), seed);
    const auto b =
        randomInt8(static_cast<std::size_t>(k * ldb), seed + 1);
    std::vector<std::int32_t> want(static_cast<std::size_t>(m * ldc), -3);
    std::vector<std::int32_t> got(want.size(), -3);
    kernelTable(KernelIsa::Scalar)
        .gemmInt8(a.data(), lda, b.data(), ldb, want.data(), ldc, m, k, n);
    kernelTable(isa).gemmInt8(a.data(), lda, b.data(), ldb, got.data(),
                              ldc, m, k, n);
    for (std::size_t i = 0; i < got.size(); ++i)
        ASSERT_EQ(got[i], want[i])
            << kernelIsaName(isa) << " m=" << m << " k=" << k
            << " n=" << n << " lda=" << lda << " ldb=" << ldb
            << " ldc=" << ldc << " element " << i;
}

TEST(KernelTableInt8, EveryTableMatchesScalarOnVnniEdgeShapes)
{
    // The VNNI GEMM packs B in k-quads of 128-deep blocks, 16-column
    // groups of 512-column blocks, and tiles A in 6 rows (256-bit) or
    // 12 rows by two groups (512-bit); 1..4 rows defer to the madd
    // GEMM.  Sweep k % 4 != 0, k across the 128 block edge, n % 16 !=
    // 0, odd group counts and n > 512, m % 6 != 0 and m % 12 != 0,
    // with padded leading dimensions.
    std::uint64_t seed = 900;
    for (KernelIsa isa : availableIsas()) {
        for (std::int64_t k : {1, 3, 6, 127, 128, 129, 261}) {
            for (std::int64_t m :
                 {1, 4, 5, 6, 7, 11, 12, 13, 23, 24, 25}) {
                for (std::int64_t n : {1, 5, 16, 17, 31, 32, 33, 47, 48,
                                       64, 65, 530}) {
                    seed += 2;
                    expectInt8MatchesScalarStrided(isa, m, k, n, k + 3,
                                                   n + 5, n + 2, seed);
                    if (HasFatalFailure())
                        return;
                }
            }
        }
    }
    if (!kernelIsaAvailable(KernelIsa::AvxVnni))
        GTEST_SKIP() << "no AVX-VNNI or AVX512-VNNI+VL on this host (or "
                        "FPSA_KERNEL_ISA masks it): the other tables "
                        "passed, the avxvnni table went untested";
}

TEST(KernelTableInt8, ColumnBitsIndependentOfCallWidth)
{
    const std::int64_t m = 5, k = 130, n = 17;
    const auto a = randomInt8(static_cast<std::size_t>(m * k), 7);
    const auto b = randomInt8(static_cast<std::size_t>(k * n), 8);
    for (KernelIsa isa : availableIsas()) {
        const KernelTable &t = kernelTable(isa);
        std::vector<std::int32_t> wide(static_cast<std::size_t>(m * n));
        t.gemmInt8(a.data(), k, b.data(), n, wide.data(), n, m, k, n);
        for (std::int64_t j = 0; j < n; ++j) {
            std::vector<std::int32_t> narrow(
                static_cast<std::size_t>(m));
            t.gemmInt8(a.data(), k, b.data() + j, n, narrow.data(), 1,
                       m, k, 1);
            for (std::int64_t i = 0; i < m; ++i)
                ASSERT_EQ(narrow[static_cast<std::size_t>(i)],
                          wide[static_cast<std::size_t>(i * n + j)])
                    << kernelIsaName(isa) << " " << i << "," << j;
        }
    }
}

TEST(KernelTableGolden, Im2colIdenticalAcrossTables)
{
    // Packing moves data without arithmetic, so every table must
    // produce identical bytes, padding included.
    const std::int64_t ci = 3, hi = 9, wi = 7;
    const std::int64_t kh = 3, kw = 3, stride = 2, pad = 1;
    const std::int64_t ho = (hi + 2 * pad - kh) / stride + 1;
    const std::int64_t wo = (wi + 2 * pad - kw) / stride + 1;
    const auto img =
        randomFloats(static_cast<std::size_t>(ci * hi * wi), 9);
    const std::int64_t rows = ci * kh * kw;
    const std::int64_t ldm = ho * wo + 5; // strided destination
    std::vector<float> want(static_cast<std::size_t>(rows * ldm),
                            -3.0f);
    kernelTable(KernelIsa::Scalar)
        .im2colChw(img.data(), ci, hi, wi, kh, kw, stride, pad, ho, wo,
                   want.data(), ldm, 0.0f);
    for (KernelIsa isa : availableIsas()) {
        std::vector<float> got(static_cast<std::size_t>(rows * ldm),
                               -3.0f);
        kernelTable(isa).im2colChw(img.data(), ci, hi, wi, kh, kw,
                                   stride, pad, ho, wo, got.data(), ldm,
                                   0.0f);
        for (std::size_t i = 0; i < got.size(); ++i)
            ASSERT_EQ(got[i], want[i])
                << kernelIsaName(isa) << " element " << i;
    }
}

TEST(KernelTableGolden, Im2colInt8MatchesFloatPacking)
{
    // The int8 packer is the float one over int8 levels: the same
    // layout, with out-of-range taps written as level 0.
    const std::int64_t ci = 2, hi = 7, wi = 6;
    const std::int64_t kh = 3, kw = 3, stride = 2, pad = 2;
    const std::int64_t ho = (hi + 2 * pad - kh) / stride + 1;
    const std::int64_t wo = (wi + 2 * pad - kw) / stride + 1;
    const auto img8 =
        randomInt8(static_cast<std::size_t>(ci * hi * wi), 10);
    const std::vector<float> img(img8.begin(), img8.end());
    const std::int64_t rows = ci * kh * kw;
    const std::int64_t ldm = ho * wo + 3; // strided destination
    std::vector<float> want(static_cast<std::size_t>(rows * ldm), 99.0f);
    kernelTable(KernelIsa::Scalar)
        .im2colChw(img.data(), ci, hi, wi, kh, kw, stride, pad, ho, wo,
                   want.data(), ldm, 0.0f);
    std::vector<std::int8_t> got(static_cast<std::size_t>(rows * ldm),
                                 99);
    im2colChwInt8(img8.data(), ci, hi, wi, kh, kw, stride, pad, ho, wo,
                  got.data(), ldm);
    for (std::size_t i = 0; i < got.size(); ++i)
        ASSERT_EQ(static_cast<float>(got[i]), want[i]) << "element " << i;
}

/** im2col by its definition, one element at a time. */
template <typename T>
void
naiveIm2col(const T *input, std::int64_t ci, std::int64_t hi,
            std::int64_t wi, std::int64_t k, std::int64_t stride,
            std::int64_t pad, std::int64_t ho, std::int64_t wo, T *columns,
            std::int64_t ldm, T pad_value)
{
    for (std::int64_t ic = 0; ic < ci; ++ic)
        for (std::int64_t ky = 0; ky < k; ++ky)
            for (std::int64_t kx = 0; kx < k; ++kx)
                for (std::int64_t oy = 0; oy < ho; ++oy)
                    for (std::int64_t ox = 0; ox < wo; ++ox) {
                        const std::int64_t iy = oy * stride + ky - pad;
                        const std::int64_t ix = ox * stride + kx - pad;
                        columns[((ic * k + ky) * k + kx) * ldm +
                                oy * wo + ox] =
                            iy >= 0 && iy < hi && ix >= 0 && ix < wi
                                ? input[(ic * hi + iy) * wi + ix]
                                : pad_value;
                    }
}

TEST(KernelTableGolden, Im2colMatchesNaiveOracleOnSamePadAndEdgeShapes)
{
    // Same-padded stride-1 convs take the shifted-plane copy; the rest
    // the per-row one.  Each case packs one image of three channels as
    // the second image of a coalesced pair (ldm > ho * wo), whole and
    // as the channel blocks a split packs, and compares every byte of
    // the destination, slack included, with the naive oracle's.
    struct Case
    {
        std::int64_t hi, wi, k, stride, pad;
    };
    const Case cases[] = {
        {9, 7, 1, 1, 0},  {9, 7, 3, 1, 1},  {16, 16, 3, 1, 1},
        {6, 11, 5, 1, 2}, {8, 8, 7, 1, 3},  {1, 5, 3, 1, 1},
        {5, 1, 3, 1, 1},  {2, 2, 5, 1, 2},  {3, 1, 7, 1, 3},
        {1, 1, 3, 1, 1},  {9, 7, 3, 1, 0},  {9, 7, 3, 2, 1},
        {6, 5, 5, 1, 1},  {2, 2, 5, 2, 2},
    };
    constexpr std::int64_t ci = 3;
    const std::vector<std::vector<std::int64_t>> blockings{
        {0, 3}, {0, 1, 3}, {0, 2, 3}, {0, 1, 2, 3}};
    for (const Case &c : cases) {
        const std::int64_t ho = (c.hi + 2 * c.pad - c.k) / c.stride + 1;
        const std::int64_t wo = (c.wi + 2 * c.pad - c.k) / c.stride + 1;
        const std::int64_t hw = ho * wo, ldm = 2 * hw + 3;
        const std::size_t size =
            static_cast<std::size_t>(ci * c.k * c.k * ldm);
        const auto img =
            randomFloats(static_cast<std::size_t>(ci * c.hi * c.wi),
                         static_cast<std::uint64_t>(c.hi * 100 + c.k));
        const auto img8 =
            randomInt8(static_cast<std::size_t>(ci * c.hi * c.wi),
                       static_cast<std::uint64_t>(c.wi * 100 + c.k));
        const std::string what =
            std::to_string(c.hi) + "x" + std::to_string(c.wi) + " k" +
            std::to_string(c.k) + " s" + std::to_string(c.stride) +
            " p" + std::to_string(c.pad);

        for (float pad_value : {0.0f, -2.5f}) {
            std::vector<float> want(size, 7.0f);
            naiveIm2col(img.data(), ci, c.hi, c.wi, c.k, c.stride, c.pad,
                        ho, wo, want.data() + hw, ldm, pad_value);
            for (KernelIsa isa : availableIsas()) {
                for (const auto &blocks : blockings) {
                    std::vector<float> got(size, 7.0f);
                    for (std::size_t b = 0; b + 1 < blocks.size(); ++b) {
                        const std::int64_t c0 = blocks[b],
                                           c1 = blocks[b + 1];
                        kernelTable(isa).im2colChw(
                            img.data() + c0 * c.hi * c.wi, c1 - c0, c.hi,
                            c.wi, c.k, c.k, c.stride, c.pad, ho, wo,
                            got.data() + hw + c0 * c.k * c.k * ldm, ldm,
                            pad_value);
                    }
                    ASSERT_EQ(std::memcmp(got.data(), want.data(),
                                          size * sizeof(float)),
                              0)
                        << kernelIsaName(isa) << " " << what << " pad "
                        << pad_value << " blocks " << blocks.size() - 1;
                }
            }
        }

        std::vector<std::int8_t> want8(size, std::int8_t{7});
        naiveIm2col(img8.data(), ci, c.hi, c.wi, c.k, c.stride, c.pad, ho,
                    wo, want8.data() + hw, ldm, std::int8_t{0});
        for (const auto &blocks : blockings) {
            std::vector<std::int8_t> got8(size, std::int8_t{7});
            for (std::size_t b = 0; b + 1 < blocks.size(); ++b) {
                const std::int64_t c0 = blocks[b], c1 = blocks[b + 1];
                im2colChwInt8(img8.data() + c0 * c.hi * c.wi, c1 - c0,
                              c.hi, c.wi, c.k, c.k, c.stride, c.pad, ho,
                              wo, got8.data() + hw + c0 * c.k * c.k * ldm,
                              ldm);
            }
            ASSERT_EQ(std::memcmp(got8.data(), want8.data(), size), 0)
                << "int8 " << what << " blocks " << blocks.size() - 1;
        }
    }
}

} // namespace
} // namespace fpsa
