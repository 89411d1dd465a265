#include "tensor/ops.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <stdexcept>

#include "tensor/gemm_dispatch.h"
#include "util/check.h"
#include "util/prof.h"
#include "util/thread_pool.h"

namespace zka::tensor {
namespace {

using detail::GemmLayout;
using detail::kGemmMR;
using detail::kGemmNC;

std::atomic<bool> g_kernel_parallelism{true};

// Work below this many flops (2*m*n*k) runs single-threaded: the fork/join
// handshake costs more than the multiply.
constexpr std::int64_t kMinParallelFlops = std::int64_t{1} << 22;

struct Backend {
  detail::GemmRangesFn ranges;
  const char* name;
  /// Prof counter bumped once per gemm_driver call; fixed at startup, so
  /// ZKA_PROF_COUNT's per-call-site cell caching is sound.
  const char* tier_counter;
};

Backend select_backend() {
#if defined(__x86_64__) && defined(__GNUC__)
#if defined(ZKA_GEMM_AVX512)
  if (__builtin_cpu_supports("avx512f")) {
    return {&detail::avx512::gemm_ranges, "avx512f", "gemm/tier/avx512f"};
  }
#endif
#if defined(ZKA_GEMM_AVX2)
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return {&detail::avx2::gemm_ranges, "avx2+fma", "gemm/tier/avx2+fma"};
  }
#endif
#endif
  return {&detail::generic::gemm_ranges, "generic", "gemm/tier/generic"};
}

const Backend& backend() {
  static const Backend b = select_backend();
  return b;
}

// Shared driver: applies beta, then computes C = alpha*op(A)@op(B) + C,
// chunked across the pool when the product is large enough. Chunks split C
// into disjoint row groups (multiples of the register-tile height) or
// column groups (multiples of the cache-block width), so every partition
// performs bitwise-identical tile computations — see ops.h.
void gemm_driver(GemmLayout layout, std::int64_t m, std::int64_t n,
                 std::int64_t k, float alpha, const float* a, const float* b,
                 float beta, float* c) {
  ZKA_DCHECK(m >= 0 && n >= 0 && k >= 0, "gemm sizes m=%lld n=%lld k=%lld",
             static_cast<long long>(m), static_cast<long long>(n),
             static_cast<long long>(k));
  ZKA_DCHECK(m * n == 0 || c != nullptr, "gemm: null C for %lldx%lld output",
             static_cast<long long>(m), static_cast<long long>(n));
  ZKA_DCHECK(m * n * k == 0 || (a != nullptr && b != nullptr),
             "gemm: null operand for nonempty product");
  if (m <= 0 || n <= 0) return;
  ZKA_PROF_COUNT("gemm/calls", 1);
  ZKA_PROF_COUNT("gemm/flops", 2 * m * n * k);
  ZKA_PROF_COUNT("gemm/bytes",
                 static_cast<std::int64_t>(sizeof(float)) *
                     (m * k + k * n + 2 * m * n));
  ZKA_PROF_COUNT(backend().tier_counter, 1);
  if (beta == 0.0f) {
    std::memset(c, 0, static_cast<std::size_t>(m * n) * sizeof(float));
  } else if (beta != 1.0f) {
    for (std::int64_t i = 0; i < m * n; ++i) c[i] *= beta;
  }
  if (alpha == 0.0f || k <= 0) return;

  const detail::GemmRangesFn ranges = backend().ranges;
  const std::int64_t row_units = (m + kGemmMR - 1) / kGemmMR;
  const std::int64_t col_units = (n + kGemmNC - 1) / kGemmNC;
  const bool by_rows = row_units >= col_units;
  const std::int64_t units = by_rows ? row_units : col_units;
  const std::int64_t unit = by_rows ? kGemmMR : kGemmNC;
  const std::int64_t extent = by_rows ? m : n;
  // 2 chunks per thread for load balance; the partition never changes
  // results, only which thread computes which tiles. A single chunk is the
  // whole product, computed inline.
  const bool fork = kernel_fork_worthwhile(2 * m * n * k >= kMinParallelFlops);
  const auto threads =
      static_cast<std::int64_t>(util::global_thread_pool().size());
  const std::int64_t nchunks = fork ? std::min(units, threads * 2) : 1;
  kernel_parallel_for(
      static_cast<std::size_t>(nchunks), fork, [&](std::size_t t) {
        const auto ti = static_cast<std::int64_t>(t);
        const std::int64_t u0 = units * ti / nchunks;
        const std::int64_t u1 = units * (ti + 1) / nchunks;
        if (u0 == u1) return;
        const std::int64_t lo = u0 * unit;
        const std::int64_t hi = std::min(extent, u1 * unit);
        if (by_rows) {
          ranges(layout, m, n, k, alpha, a, b, c, lo, hi, 0, n);
        } else {
          ranges(layout, m, n, k, alpha, a, b, c, 0, m, lo, hi);
        }
      });
}

// Output-x range [x0, x1) for which ix = x*stride - pad + kx stays inside
// [0, in_w). Outside that span the patch samples the zero padding.
struct XSpan {
  std::int64_t x0;
  std::int64_t x1;
};

XSpan valid_span(std::int64_t extent, std::int64_t out_extent,
                 std::int64_t stride, std::int64_t pad,
                 std::int64_t k) noexcept {
  // Smallest x with x*stride - pad + k >= 0, and first x past the end.
  const std::int64_t lo = pad - k;
  std::int64_t x0 = lo > 0 ? (lo + stride - 1) / stride : 0;
  std::int64_t x1 = (extent + pad - k + stride - 1) / stride;
  x0 = std::min(x0, out_extent);
  x1 = std::clamp(x1, x0, out_extent);
  return {x0, x1};
}

// im2col/col2im core over one sample, writing into a column matrix whose
// rows have leading dimension `ld` and whose columns for this sample start
// at `col_offset`. Per-row the valid span is precomputed so the inner loops
// carry no bounds checks; stride 1 degenerates to memcpy.
void im2col_one(const ConvGeometry& g, const float* image, float* col,
                std::int64_t ld, std::int64_t col_offset) noexcept {
  const std::int64_t oh = g.out_h();
  const std::int64_t ow = g.out_w();
  std::int64_t row = 0;
  for (std::int64_t c = 0; c < g.in_channels; ++c) {
    const float* plane = image + c * g.in_h * g.in_w;
    for (std::int64_t ky = 0; ky < g.kernel; ++ky) {
      const XSpan ys = valid_span(g.in_h, oh, g.stride, g.pad, ky);
      for (std::int64_t kx = 0; kx < g.kernel; ++kx, ++row) {
        const XSpan xs = valid_span(g.in_w, ow, g.stride, g.pad, kx);
        float* out = col + row * ld + col_offset;
        std::memset(out, 0, static_cast<std::size_t>(ys.x0 * ow) * sizeof(float));
        std::memset(out + ys.x1 * ow, 0,
                    static_cast<std::size_t>((oh - ys.x1) * ow) * sizeof(float));
        for (std::int64_t y = ys.x0; y < ys.x1; ++y) {
          const std::int64_t iy = y * g.stride - g.pad + ky;
          const float* src = plane + iy * g.in_w;
          float* dst = out + y * ow;
          for (std::int64_t x = 0; x < xs.x0; ++x) dst[x] = 0.0f;
          if (g.stride == 1) {
            std::memcpy(dst + xs.x0, src + (xs.x0 - g.pad + kx),
                        static_cast<std::size_t>(xs.x1 - xs.x0) * sizeof(float));
          } else {
            for (std::int64_t x = xs.x0; x < xs.x1; ++x) {
              dst[x] = src[x * g.stride - g.pad + kx];
            }
          }
          for (std::int64_t x = xs.x1; x < ow; ++x) dst[x] = 0.0f;
        }
      }
    }
  }
  ZKA_DCHECK(row == g.patch_size(), "im2col rows %lld != patch size %lld",
             static_cast<long long>(row),
             static_cast<long long>(g.patch_size()));
}

void col2im_one(const ConvGeometry& g, const float* col, float* image,
                std::int64_t ld, std::int64_t col_offset) noexcept {
  const std::int64_t oh = g.out_h();
  const std::int64_t ow = g.out_w();
  std::int64_t row = 0;
  for (std::int64_t c = 0; c < g.in_channels; ++c) {
    float* plane = image + c * g.in_h * g.in_w;
    for (std::int64_t ky = 0; ky < g.kernel; ++ky) {
      const XSpan ys = valid_span(g.in_h, oh, g.stride, g.pad, ky);
      for (std::int64_t kx = 0; kx < g.kernel; ++kx, ++row) {
        const XSpan xs = valid_span(g.in_w, ow, g.stride, g.pad, kx);
        const float* in = col + row * ld + col_offset;
        for (std::int64_t y = ys.x0; y < ys.x1; ++y) {
          const std::int64_t iy = y * g.stride - g.pad + ky;
          float* dst = plane + iy * g.in_w;
          const float* src = in + y * ow;
          for (std::int64_t x = xs.x0; x < xs.x1; ++x) {
            dst[x * g.stride - g.pad + kx] += src[x];
          }
        }
      }
    }
  }
  ZKA_DCHECK(row == g.patch_size(), "col2im rows %lld != patch size %lld",
             static_cast<long long>(row),
             static_cast<long long>(g.patch_size()));
}

// Geometry preconditions shared by the four im2col/col2im entry points.
// Violations are programmer errors in the conv layers, not user input, so
// this is contract-build-only.
void dcheck_geometry(const ConvGeometry& g, std::int64_t batch) noexcept {
  ZKA_DCHECK(g.in_channels > 0 && g.in_h > 0 && g.in_w > 0,
             "conv geometry: bad input %lldx%lldx%lld",
             static_cast<long long>(g.in_channels),
             static_cast<long long>(g.in_h), static_cast<long long>(g.in_w));
  ZKA_DCHECK(g.kernel > 0 && g.stride > 0 && g.pad >= 0,
             "conv geometry: kernel=%lld stride=%lld pad=%lld",
             static_cast<long long>(g.kernel),
             static_cast<long long>(g.stride), static_cast<long long>(g.pad));
  ZKA_DCHECK(g.out_h() > 0 && g.out_w() > 0 && batch >= 0,
             "conv geometry: empty output %lldx%lld (batch %lld)",
             static_cast<long long>(g.out_h()),
             static_cast<long long>(g.out_w()), static_cast<long long>(batch));
}

// Samples are independent (disjoint column slabs / disjoint images), so a
// parallel batch loop is deterministic. Only worth forking for real work.
bool batch_worth_forking(const ConvGeometry& g, std::int64_t batch) {
  return batch >= 4 &&
         g.patch_size() * g.out_h() * g.out_w() * batch >= (1 << 18);
}

}  // namespace

void set_kernel_parallelism(bool enabled) noexcept {
  g_kernel_parallelism.store(enabled, std::memory_order_relaxed);
}

bool kernel_parallelism_enabled() noexcept {
  return g_kernel_parallelism.load(std::memory_order_relaxed);
}

bool kernel_fork_worthwhile(bool worth_forking) noexcept {
  return kernel_parallelism_enabled() && worth_forking &&
         util::global_thread_pool().size() > 1;
}

const char* gemm_backend_name() noexcept { return backend().name; }

void gemm(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
          const float* a, const float* b, float beta, float* c) noexcept {
  gemm_driver(GemmLayout::kAB, m, n, k, alpha, a, b, beta, c);
}

void gemm_at_b(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
               const float* a, const float* b, float beta, float* c) noexcept {
  gemm_driver(GemmLayout::kAtB, m, n, k, alpha, a, b, beta, c);
}

void gemm_a_bt(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
               const float* a, const float* b, float beta, float* c) noexcept {
  gemm_driver(GemmLayout::kABt, m, n, k, alpha, a, b, beta, c);
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  ZKA_CHECK(a.rank() == 2 && b.rank() == 2,
            "matmul requires rank-2 tensors, got %s @ %s",
            shape_to_string(a.shape()).c_str(),
            shape_to_string(b.shape()).c_str());
  ZKA_CHECK(a.dim(1) == b.dim(0), "matmul inner dimensions differ: %s @ %s",
            shape_to_string(a.shape()).c_str(),
            shape_to_string(b.shape()).c_str());
  Tensor c({a.dim(0), b.dim(1)});
  gemm(a.dim(0), b.dim(1), a.dim(1), 1.0f, a.raw(), b.raw(), 0.0f, c.raw());
  return c;
}

Tensor transpose2d(const Tensor& a) {
  ZKA_CHECK(a.rank() == 2, "transpose2d requires rank 2, got %s",
            shape_to_string(a.shape()).c_str());
  const std::int64_t rows = a.dim(0);
  const std::int64_t cols = a.dim(1);
  Tensor t({cols, rows});
  for (std::int64_t i = 0; i < rows; ++i) {
    for (std::int64_t j = 0; j < cols; ++j) {
      t[j * rows + i] = a[i * cols + j];
    }
  }
  return t;
}

void im2col(const ConvGeometry& g, const float* image, float* col) noexcept {
  dcheck_geometry(g, 1);
  im2col_one(g, image, col, g.out_h() * g.out_w(), 0);
}

void col2im(const ConvGeometry& g, const float* col, float* image) noexcept {
  dcheck_geometry(g, 1);
  col2im_one(g, col, image, g.out_h() * g.out_w(), 0);
}

void im2col_batched(const ConvGeometry& g, const float* images,
                    std::int64_t batch, float* col) noexcept {
  dcheck_geometry(g, batch);
  const std::int64_t spatial = g.out_h() * g.out_w();
  const std::int64_t ld = batch * spatial;
  const std::int64_t image_size = g.in_channels * g.in_h * g.in_w;
  auto one = [&](std::size_t s) {
    const auto si = static_cast<std::int64_t>(s);
    im2col_one(g, images + si * image_size, col, ld, si * spatial);
  };
  kernel_parallel_for(static_cast<std::size_t>(batch),
                      batch_worth_forking(g, batch), one);
}

void col2im_batched(const ConvGeometry& g, const float* col,
                    std::int64_t batch, float* images) noexcept {
  dcheck_geometry(g, batch);
  const std::int64_t spatial = g.out_h() * g.out_w();
  const std::int64_t ld = batch * spatial;
  const std::int64_t image_size = g.in_channels * g.in_h * g.in_w;
  auto one = [&](std::size_t s) {
    const auto si = static_cast<std::int64_t>(s);
    col2im_one(g, col, images + si * image_size, ld, si * spatial);
  };
  kernel_parallel_for(static_cast<std::size_t>(batch),
                      batch_worth_forking(g, batch), one);
}

}  // namespace zka::tensor
