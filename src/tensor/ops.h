// Dense kernels backing the NN layers: GEMM and im2col/col2im lowering for
// (transposed) convolutions.
//
// ## Accumulation policy (unified across all GEMM variants)
//
// Every GEMM kernel accumulates in float32 (binary32) registers, never in
// double. The cache-blocked implementation fixes the association order of
// the additions: the k dimension is walked in KC=256 panels, ascending, and
// within a panel each MRxNR register tile accumulates p = 0..kc-1 in order.
// Consequences:
//   * gemm / gemm_at_b / gemm_a_bt round identically for the same logical
//     product, so weight gradients and input gradients see one rounding
//     policy (the seed kernels mixed float and double accumulation);
//   * results are bitwise identical run-to-run and independent of both the
//     thread count and the parallel partition, because threads split C into
//     disjoint tiles along tile boundaries and never share an accumulator
//     (no atomics anywhere in the accumulation path);
//   * results may differ across ISA tiers (FMA contracts one rounding step)
//     and from the seed kernels (different association order) by normal
//     float32 epsilon. On any given machine the selected tier is fixed, so
//     this never affects reproducibility of a run.
//
// ## Threading
//
// Large GEMMs are split over the process-wide util::global_thread_pool()
// into disjoint row/column chunks aligned to the blocking scheme. Nested
// use (e.g. kernels inside an already-parallel FL client loop) is safe: the
// pool runs nested parallel_for bodies inline. set_kernel_parallelism(false)
// forces every kernel single-threaded.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "tensor/tensor.h"
#include "util/thread_pool.h"

namespace zka::tensor {

/// Enables/disables thread-pool parallelism inside the GEMM and batched
/// im2col/col2im kernels (default: enabled). Thread count never changes
/// results; this knob exists for benchmarking and for callers that manage
/// parallelism at a coarser grain themselves.
void set_kernel_parallelism(bool enabled) noexcept;
bool kernel_parallelism_enabled() noexcept;

/// The kernels' one fork gate: true when kernel parallelism is enabled,
/// `worth_forking` (the caller's work threshold) holds and the global pool
/// has more than one worker (a one-worker pool gains nothing from forking:
/// the caller would only contend with its one helper).
bool kernel_fork_worthwhile(bool worth_forking) noexcept;

/// Runs body(i) for every i in [0, n): across the global pool when n > 1 and
/// kernel_fork_worthwhile(worth_forking), serially in ascending i otherwise.
/// A template so the serial path wraps nothing in a std::function.
template <typename Body>
void kernel_parallel_for(std::size_t n, bool worth_forking, const Body& body) {
  if (n > 1 && kernel_fork_worthwhile(worth_forking)) {
    util::global_thread_pool().parallel_for(n, body);
  } else {
    for (std::size_t i = 0; i < n; ++i) body(i);
  }
}

/// Name of the GEMM backend selected for this CPU at startup:
/// "avx512f", "avx2+fma", or "generic".
const char* gemm_backend_name() noexcept;

/// C[M,N] = alpha * A[M,K] @ B[K,N] + beta * C. Row-major raw buffers.
void gemm(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
          const float* a, const float* b, float beta, float* c) noexcept;

/// C[M,N] += A^T where A is [K,M] times B [K,N]  (i.e. C = alpha*Aᵀ@B + beta*C).
void gemm_at_b(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
               const float* a, const float* b, float beta, float* c) noexcept;

/// C[M,N] = alpha * A[M,K] @ Bᵀ where B is [N,K], plus beta*C.
void gemm_a_bt(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
               const float* a, const float* b, float beta, float* c) noexcept;

/// 2-D matrix multiply on tensors: [M,K] @ [K,N] -> [M,N].
Tensor matmul(const Tensor& a, const Tensor& b);

/// Transpose of a rank-2 tensor.
Tensor transpose2d(const Tensor& a);

/// Convolution geometry (square kernels, symmetric padding/stride).
struct ConvGeometry {
  std::int64_t in_channels = 0;
  std::int64_t in_h = 0;
  std::int64_t in_w = 0;
  std::int64_t kernel = 0;
  std::int64_t stride = 1;
  std::int64_t pad = 0;

  std::int64_t out_h() const noexcept {
    return (in_h + 2 * pad - kernel) / stride + 1;
  }
  std::int64_t out_w() const noexcept {
    return (in_w + 2 * pad - kernel) / stride + 1;
  }
  std::int64_t patch_size() const noexcept {
    return in_channels * kernel * kernel;
  }
};

/// Lowers one [C,H,W] image into columns [C*K*K, OH*OW]; out-of-image taps
/// are zero. `col` must hold patch_size() * out_h() * out_w() floats.
void im2col(const ConvGeometry& g, const float* image, float* col) noexcept;

/// Adjoint of im2col: accumulates columns back into the [C,H,W] image
/// (image must be zeroed by the caller beforehand if a fresh result is
/// wanted; contributions are added).
void col2im(const ConvGeometry& g, const float* col, float* image) noexcept;

/// Batched im2col: lowers `batch` images (contiguous [N,C,H,W]) into one
/// column matrix [C*K*K, N * OH*OW], sample s occupying the column slab
/// [s*OH*OW, (s+1)*OH*OW). A convolution over the whole batch is then a
/// single GEMM against this matrix instead of N small ones. `col` must
/// hold patch_size() * batch * out_h() * out_w() floats. Parallelised over
/// samples (disjoint writes, deterministic).
void im2col_batched(const ConvGeometry& g, const float* images,
                    std::int64_t batch, float* col) noexcept;

/// Adjoint of im2col_batched: accumulates the [C*K*K, N*OH*OW] column
/// matrix back into `batch` images (contributions are added; zero `images`
/// first for a fresh result). Parallelised over samples.
void col2im_batched(const ConvGeometry& g, const float* col,
                    std::int64_t batch, float* images) noexcept;

}  // namespace zka::tensor
