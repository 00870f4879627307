/**
 * @file
 * Runtime-dispatched dense kernels: the instruction-set layer under the
 * planned inference data path.
 *
 * The planned executor's hot loops (fp32 GEMM, im2col packing, int8
 * GEMM) are compiled in several instruction-set variants and selected
 * once at runtime through a `KernelTable`:
 *
 *  - `Scalar` is the portable baseline (the PR-5 cache-blocked
 *    register-tile kernels, compiled with the build's default flags) --
 *    always available, and the oracle the vector variants are tested
 *    against.
 *  - `Avx2` (x86 only, runtime CPUID-gated on AVX2+FMA) runs the fp32
 *    GEMM on one register tile templated on its row count: 6 rows by
 *    16 columns (12 ymm accumulators, one broadcast FMA per row and B
 *    vector) with 1..5-row tails, every element one fused
 *    multiply-add chain in k order.  It recompiles the im2col packing
 *    for 256-bit moves, and runs the int8 GEMM as a
 *    pairwise `_mm256_madd_epi16` microkernel: two k steps of eight
 *    columns per multiply, exact over the whole int8 range.
 *  - `AvxVnni` (x86 only, CPUID-gated on AVX2+FMA plus AVX-VNNI, or
 *    AVX512-VNNI with AVX512F and AVX512VL) runs the int8 GEMM on
 *    `vpdpbusd`: four k steps per lane per instruction, no sign
 *    extension.  `vpdpbusd` multiplies an unsigned byte by a signed
 *    one, so B enters as B + 128 (`xor 0x80`), packed once per 128 x
 *    512 block into 4-byte k-quads (a 64 KB stack buffer), A rows are
 *    broadcast as signed k-quads, and every row tile seeds its
 *    accumulators with -128 * rowsum(A block).  The offset cancels
 *    exactly -- sum(a * (b + 128)) - 128 * sum(a) = sum(a * b) in
 *    wrapping int32, whose true result fits -- so the contract stays
 *    exact int32 math for any int8 operands: no caller sees the
 *    offset, signed inputs (a network's first layer) included.  Calls
 *    with fewer than five rows, which do not earn back the packing,
 *    run the madd GEMM.  The table comes in two widths, picked once
 *    by CPUID:
 *    - with AVX512F + AVX512VL + AVX512-VNNI, 512-bit tiles: the fp32
 *      GEMM on a 12-row x 32-column zmm tile (a 16-column step and a
 *      masked tail after it) and the int8 GEMM on 12-row x 32-column
 *      `vpdpbusd` tiles, one zmm per packed 16-column k-quad group;
 *    - with AVX-VNNI alone, `Avx2`'s fp32 GEMM and 6-row x 16-column
 *      VEX `vpdpbusd` tiles.
 *    Either way the im2col is `Avx2`'s, and the fp32 GEMM runs the
 *    same per-element fused chains in the same k blocks as `Avx2`'s,
 *    so fp32 results equal `Avx2`'s bit for bit on every host.
 *  - On a 512-bit host whose CPU also has AMX-TILE and AMX-INT8, and
 *    whose OS grants this process the tile data state (Linux's
 *    `ARCH_REQ_XCOMP_PERM`, asked once when the table is first
 *    resolved), the `AvxVnni` table runs its int8 GEMM on AMX tiles
 *    (`KernelTable::amxTiles` says so): `tdpbssd` multiplies signed
 *    16 x 64 by 64 x 16 int8 tiles into 16 x 16 int32 ones, with no
 *    offset or seed, on 2 x 2 C tiles.  Selection is by shape: the
 *    tiles take the call's first m & ~15 rows and n & ~15 columns
 *    when k is at least 64; the 1..15-row and -column remainders, a
 *    call with m or n below 16 and a shallow k (where padding k to
 *    64 costs more than it gains -- a 3x3 conv on 3 channels has
 *    k = 27) run the 512-bit `vpdpbusd` GEMM.  No ISA value selects
 *    AMX on its own, and `FPSA_KERNEL_ISA=avx2` masks it with the
 *    rest of the table.  Where any AMX check fails, the table is the
 *    plain 512-bit one.
 *  - `Neon` (aarch64 only) uses explicit 4-lane fused multiply-adds.
 *
 * Determinism contract (what `ExecutionPlan` relies on): within one
 * table, for a fixed reduction length k, every output column
 * accumulates its products in the same k-ascending order with the same
 * (fused or unfused) multiply-add operation regardless of the column
 * count, the column's position, or pointer alignment -- the k loop is
 * blocked identically for every call, column tiling never reorders a
 * column's partial sums, and vector bodies cover remainder columns
 * with a scalar or masked-vector *fused* multiply-add so a column
 * computes the same value whether it lands in a full vector or the
 * tail.  A batched call that widens `n` is therefore bit-identical per
 * column to single-sample calls through the same table -- the property
 * the executor's batch path and its tests rely on.  Different tables
 * may differ within float rounding (FMA vs separate multiply+add); the
 * int8 GEMM is exact integer arithmetic and bit-identical across every
 * table.  Its blocking is therefore free: integer sums do not depend
 * on the order they are added in, so the int8 GEMMs block k and n as
 * suits each instruction set (128 x 512 for VNNI, up to 1024-deep
 * blocks for AMX) and split a call between tile kernels without
 * changing a bit.
 *
 * Selection: `kernelTable(KernelIsa::Auto)` picks the best available
 * variant (`AvxVnni` over `Avx2` over `Scalar` on x86); the `AvxVnni`
 * table is the 512-bit one wherever AVX-512 with VNNI is present, the
 * 256-bit one on AVX-VNNI-only hosts (`KernelTable::vectorBits` says
 * which), with its int8 GEMM on AMX tiles where those are usable
 * (`KernelTable::amxTiles`).  The environment variable
 * `FPSA_KERNEL_ISA` (`scalar` / `avx2` / `avxvnni` / `neon` / `auto`,
 * read once at first use)
 * limits the available variants to {`Scalar`, that one}, and `Auto`
 * then resolves to the best of those -- `FPSA_KERNEL_ISA=scalar`
 * forces every consumer in the process onto the portable baseline,
 * and `FPSA_KERNEL_ISA=avx2` masks the VNNI table so `Auto` runs the
 * madd int8 GEMM and the 256-bit fp32 tile; CI uses both to keep
 * every code path green.  Requesting an unavailable ISA falls back to
 * `Scalar`.
 */

#ifndef FPSA_TENSOR_KERNELS_HH
#define FPSA_TENSOR_KERNELS_HH

#include <cstdint>
#include <string>

namespace fpsa
{

/** Instruction-set variants a kernel table can be built from. */
enum class KernelIsa
{
    Auto,    //!< resolve to the best available variant at runtime
    Scalar,  //!< portable baseline; always available
    Avx2,    //!< x86 AVX2+FMA (8-lane fp32 FMA)
    AvxVnni, //!< a `vpdpbusd` int8 GEMM; 512-bit tiles with AVX-512,
             //!< its int8 GEMM on AMX tiles where those are usable
    Neon,    //!< aarch64 NEON (4-lane fp32 FMA)
};

const char *kernelIsaName(KernelIsa isa);

/** Parse "auto"/"scalar"/"avx2"/"avxvnni"/"neon" (case-insensitive). */
bool parseKernelIsa(const std::string &name, KernelIsa &out);

/**
 * Whether `isa` can actually run here: compiled into this binary, the
 * CPU supports it, and the `FPSA_KERNEL_ISA` override does not mask
 * it.  `Scalar` is always available; `Auto` reports true.
 */
bool kernelIsaAvailable(KernelIsa isa);

/**
 * Resolve a requested ISA to the one that will run: `Auto` becomes the
 * best available variant, an unavailable request falls back to
 * `Scalar`.  Never returns `Auto`.
 */
KernelIsa resolveKernelIsa(KernelIsa requested);

/**
 * Numeric execution mode of the planned data path.  `Int8` and `Int6`
 * both store 8-bit symmetric weights (the paper's crossbar cell
 * configuration); they differ in activation width -- 8-bit vs the
 * paper's 6-bit spike-count grid (Table 2).
 */
enum class PrecisionMode
{
    Fp32, //!< dense float kernels (the PR-5 path)
    Int8, //!< int8 weights x int8 activations -> int32, float epilogue
    Int6, //!< int8 weights x int6 activations -> int32, float epilogue
};

const char *precisionModeName(PrecisionMode mode);

/** Parse "fp32"/"int8"/"int6" (case-insensitive). */
bool parsePrecisionMode(const std::string &name, PrecisionMode &out);

/** Activation quantization width of a mode; 0 for Fp32. */
int precisionActivationBits(PrecisionMode mode);

/**
 * One instruction-set variant of the dense kernels.  All functions are
 * thread-safe pure procedures.  Callers that promise bit-identity
 * against a stamped config (an `ExecutionPlan`) hold one pinned table;
 * everything else goes through `kernelTable()`.
 */
struct KernelTable
{
    KernelIsa isa = KernelIsa::Scalar; //!< the variant actually bound
    /**
     * Register width of the bound kernels: 0 for scalar, 128 for NEON,
     * 256 or 512 for x86 (`AvxVnni` is 512 where AVX-512 with VNNI
     * is present).
     */
    int vectorBits = 0;

    /**
     * C[m x n] = A[m x k] * B[k x n], all row-major with the given
     * leading strides (elements between consecutive rows); C is
     * overwritten.  Cache-blocked over k and n, with a register tile
     * per table: 4 rows for the scalar and NEON tables, 6 rows by 16
     * columns for AVX2, 12 rows by 32 columns for 512-bit AvxVnni.
     * Accumulation per element is strictly
     * k-ascending (see the determinism contract above).
     */
    void (*gemmRowMajor)(const float *a, std::int64_t lda,
                         const float *b, std::int64_t ldb, float *c,
                         std::int64_t ldc, std::int64_t m,
                         std::int64_t k, std::int64_t n) = nullptr;

    /**
     * Pack one CHW image into an im2col matrix of shape
     * [ci*kh*kw x ho*wo] (row-major, leading stride `ldm`): row
     * (ic*kh + ky)*kw + kx holds input channel `ic` sampled at kernel
     * tap (ky, kx) for every output position.  Symmetric padding is
     * resolved here -- out-of-range taps are written as `pad_value` --
     * so the GEMM consuming the matrix runs with no bounds checks.
     * `columns` points at the first column this image occupies, so a
     * batch packs B images side by side into one
     * [ci*kh*kw x B*ho*wo] matrix (ldm = B*ho*wo) and multiplies them
     * in a single GEMM.
     */
    void (*im2colChw)(const float *input, std::int64_t ci,
                      std::int64_t hi, std::int64_t wi, std::int64_t kh,
                      std::int64_t kw, std::int64_t stride,
                      std::int64_t pad, std::int64_t ho, std::int64_t wo,
                      float *columns, std::int64_t ldm,
                      float pad_value) = nullptr;

    /**
     * C[m x n] = A[m x k] * B[k x n] with int8 operands and int32
     * accumulation (exact for the whole int8 range; bit-identical
     * across tables).  C is overwritten; the gaps between C's rows
     * (ldc > n) are not touched.
     */
    void (*gemmInt8)(const std::int8_t *a, std::int64_t lda,
                     const std::int8_t *b, std::int64_t ldb,
                     std::int32_t *c, std::int64_t ldc, std::int64_t m,
                     std::int64_t k, std::int64_t n) = nullptr;

    /**
     * Whether `gemmInt8` runs on AMX tiles (the 512-bit `AvxVnni`
     * table on a host with AMX-INT8); for reports only.
     */
    bool amxTiles = false;
};

/**
 * The kernel table for `isa`, after `resolveKernelIsa`.  Tables are
 * immutable statics: the returned reference stays valid forever.
 */
const KernelTable &kernelTable(KernelIsa isa = KernelIsa::Auto);

/**
 * im2col over int8 activation levels: the same layout contract as
 * `KernelTable::im2colChw`, with out-of-range taps
 * written as level 0.  Packing only copies, so it needs no per-ISA
 * variant.  The quantized plan packs its columns with it after
 * quantizing the layer input once (nn/plan.hh).
 */
void im2colChwInt8(const std::int8_t *input, std::int64_t ci,
                   std::int64_t hi, std::int64_t wi, std::int64_t kh,
                   std::int64_t kw, std::int64_t stride, std::int64_t pad,
                   std::int64_t ho, std::int64_t wo, std::int8_t *columns,
                   std::int64_t ldm);

} // namespace fpsa

#endif // FPSA_TENSOR_KERNELS_HH
