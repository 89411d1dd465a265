#include "tensor/reduce.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <vector>

#include "tensor/ops.h"
#include "tensor/reduce_dispatch.h"
#include "util/check.h"
#include "util/prof.h"

namespace zka::tensor {
namespace {

// Coordinate-block width of the parallel helpers. The grid is a function
// of the problem size only — thread count decides who computes a block,
// never where its boundaries are — so partials always combine the same
// way. A multiple of kReduceLanes keeps every block on the fast path.
constexpr std::size_t kReduceBlock = 4096;

// Work below this many accumulated elements runs inline: the fork/join
// handshake costs more than the arithmetic.
constexpr std::size_t kMinParallelElems = std::size_t{1} << 18;

struct Backend {
  const detail::ReduceKernels* kernels;
  const char* name;
  /// Prof counter bumped once per entry-point call; fixed at startup, so
  /// ZKA_PROF_COUNT's per-call-site cell caching is sound.
  const char* tier_counter;
};

Backend select_backend() {
#if defined(__x86_64__) && defined(__GNUC__)
#if defined(ZKA_GEMM_AVX512)
  if (__builtin_cpu_supports("avx512f")) {
    return {&detail::avx512::kernels, "avx512f", "reduce/tier/avx512f"};
  }
#endif
#if defined(ZKA_GEMM_AVX2)
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return {&detail::avx2::kernels, "avx2+fma", "reduce/tier/avx2+fma"};
  }
#endif
#endif
  return {&detail::generic::kernels, "generic", "reduce/tier/generic"};
}

const Backend& backend() {
  static const Backend b = select_backend();
  return b;
}

// Fixed block grid over `extent` elements, run across the pool when the
// total work is worth a fork (and parallelism is enabled).
void for_each_block(std::size_t extent, std::size_t total_work,
                    const std::function<void(std::size_t, std::size_t)>& body) {
  const std::size_t nblocks = (extent + kReduceBlock - 1) / kReduceBlock;
  auto run = [&](std::size_t b) {
    const std::size_t c0 = b * kReduceBlock;
    body(c0, std::min(extent, c0 + kReduceBlock));
  };
  kernel_parallel_for(nblocks, total_work >= kMinParallelElems, run);
}

}  // namespace

const char* reduce_backend_name() noexcept { return backend().name; }

double dot(std::span<const float> a, std::span<const float> b) noexcept {
  ZKA_DCHECK(a.size() == b.size(), "dot: %zu vs %zu", a.size(), b.size());
  ZKA_PROF_COUNT("reduce/dot/calls", 1);
  ZKA_PROF_COUNT("reduce/dot/elems", a.size());
  ZKA_PROF_COUNT(backend().tier_counter, 1);
  return backend().kernels->dot_ff(a.data(), b.data(), a.size());
}

double dot(std::span<const double> a, std::span<const double> b) noexcept {
  ZKA_DCHECK(a.size() == b.size(), "dot: %zu vs %zu", a.size(), b.size());
  ZKA_PROF_COUNT("reduce/dot/calls", 1);
  ZKA_PROF_COUNT("reduce/dot/elems", a.size());
  return backend().kernels->dot_dd(a.data(), b.data(), a.size());
}

double squared_norm(std::span<const float> a) noexcept {
  ZKA_PROF_COUNT("reduce/sqnorm/calls", 1);
  ZKA_PROF_COUNT("reduce/sqnorm/elems", a.size());
  return backend().kernels->sqnorm_f(a.data(), a.size());
}

double squared_distance(std::span<const float> a,
                        std::span<const float> b) noexcept {
  ZKA_DCHECK(a.size() == b.size(), "squared_distance: %zu vs %zu", a.size(),
             b.size());
  ZKA_PROF_COUNT("reduce/sqdist/calls", 1);
  ZKA_PROF_COUNT("reduce/sqdist/elems", a.size());
  return backend().kernels->sqdist_ff(a.data(), b.data(), a.size());
}

double squared_distance(std::span<const float> a,
                        std::span<const double> b) noexcept {
  ZKA_DCHECK(a.size() == b.size(), "squared_distance: %zu vs %zu", a.size(),
             b.size());
  ZKA_PROF_COUNT("reduce/sqdist/calls", 1);
  ZKA_PROF_COUNT("reduce/sqdist/elems", a.size());
  return backend().kernels->sqdist_fd(a.data(), b.data(), a.size());
}

double squared_distance(std::span<const double> a,
                        std::span<const double> b) noexcept {
  ZKA_DCHECK(a.size() == b.size(), "squared_distance: %zu vs %zu", a.size(),
             b.size());
  ZKA_PROF_COUNT("reduce/sqdist/calls", 1);
  ZKA_PROF_COUNT("reduce/sqdist/elems", a.size());
  return backend().kernels->sqdist_dd(a.data(), b.data(), a.size());
}

void axpy(double alpha, std::span<const float> x,
          std::span<double> y) noexcept {
  ZKA_DCHECK(x.size() == y.size(), "axpy: %zu vs %zu", x.size(), y.size());
  ZKA_PROF_COUNT("reduce/axpy/calls", 1);
  ZKA_PROF_COUNT("reduce/axpy/elems", x.size());
  backend().kernels->axpy_fd(alpha, x.data(), y.data(), x.size());
}

void axpy(double alpha, std::span<const double> x,
          std::span<double> y) noexcept {
  ZKA_DCHECK(x.size() == y.size(), "axpy: %zu vs %zu", x.size(), y.size());
  ZKA_PROF_COUNT("reduce/axpy/calls", 1);
  ZKA_PROF_COUNT("reduce/axpy/elems", x.size());
  backend().kernels->axpy_dd(alpha, x.data(), y.data(), x.size());
}

void fmadd(std::span<const float> x, std::span<const float> s,
           std::span<double> y) noexcept {
  ZKA_DCHECK(x.size() == s.size() && x.size() == y.size(),
             "fmadd: %zu / %zu / %zu", x.size(), s.size(), y.size());
  ZKA_PROF_COUNT("reduce/fmadd/calls", 1);
  ZKA_PROF_COUNT("reduce/fmadd/elems", x.size());
  backend().kernels->fmadd_ffd(x.data(), s.data(), y.data(), x.size());
}

void weighted_sum(std::span<const std::span<const float>> rows,
                  std::span<const double> coeffs, std::span<double> out) {
  ZKA_CHECK(rows.size() == coeffs.size(),
            "weighted_sum: %zu rows vs %zu coeffs", rows.size(),
            coeffs.size());
  const std::size_t n = rows.size();
  const std::size_t dim = out.size();
  ZKA_PROF_COUNT("reduce/weighted_sum/calls", 1);
  ZKA_PROF_COUNT("reduce/weighted_sum/elems", n * dim);
  ZKA_PROF_COUNT(backend().tier_counter, 1);
  const detail::ReduceKernels& k = *backend().kernels;
  for_each_block(dim, n * dim, [&](std::size_t c0, std::size_t c1) {
    double* dst = out.data() + c0;
    std::memset(dst, 0, (c1 - c0) * sizeof(double));
    for (std::size_t r = 0; r < n; ++r) {
      ZKA_DCHECK(rows[r].size() == dim, "weighted_sum: row %zu has %zu of %zu",
                 r, rows[r].size(), dim);
      k.axpy_fd(coeffs[r], rows[r].data() + c0, dst, c1 - c0);
    }
  });
}

void gram_matrix(std::span<const std::span<const float>> rows,
                 std::span<float> gram, std::span<double> sqnorms) {
  const std::size_t n = rows.size();
  ZKA_CHECK(n > 0, "gram_matrix: no rows");
  const std::size_t d = rows.front().size();
  ZKA_CHECK(gram.size() == n * n, "gram_matrix: gram holds %zu, need %zu",
            gram.size(), n * n);
  ZKA_CHECK(sqnorms.size() == n, "gram_matrix: sqnorms holds %zu, need %zu",
            sqnorms.size(), n);

  ZKA_PROF_COUNT("reduce/gram/calls", 1);
  ZKA_PROF_COUNT("reduce/gram/elems", n * d);

  // Pack the rows contiguously so the whole pairwise geometry is one
  // [n, d] x [d, n] GEMM; the row copy and the exact norms fork over rows
  // (disjoint writes, fixed per-row order).
  std::vector<float> packed(n * d);
  const detail::ReduceKernels& k = *backend().kernels;
  auto pack_row = [&](std::size_t i) {
    ZKA_DCHECK(rows[i].size() == d, "gram_matrix: row %zu has %zu of %zu", i,
               rows[i].size(), d);
    std::memcpy(packed.data() + i * d, rows[i].data(), d * sizeof(float));
    sqnorms[i] = k.sqnorm_f(rows[i].data(), d);
  };
  kernel_parallel_for(n, n * d >= kMinParallelElems, pack_row);

  gemm_a_bt(static_cast<std::int64_t>(n), static_cast<std::int64_t>(n),
            static_cast<std::int64_t>(d), 1.0f, packed.data(), packed.data(),
            0.0f, gram.data());
}

void sort_columns(float* tile, std::size_t rows, std::size_t width) {
  ZKA_CHECK(rows > 0 && (rows & (rows - 1)) == 0,
            "sort_columns: rows %zu is not a power of two", rows);
  ZKA_PROF_COUNT("reduce/sort_columns/calls", 1);
  ZKA_PROF_COUNT("reduce/sort_columns/elems", rows * width);
  const auto cmpx = backend().kernels->cmpx_rows;
  // Batcher's odd-even mergesort (Knuth 5.2.2M), iterative form for a
  // power-of-two row count.
  for (std::size_t p = 1; p < rows; p <<= 1) {
    for (std::size_t k = p; k >= 1; k >>= 1) {
      for (std::size_t j = k % p; j + k < rows; j += 2 * k) {
        for (std::size_t i = 0; i < k && i + j + k < rows; ++i) {
          if ((i + j) / (2 * p) == (i + j + k) / (2 * p)) {
            cmpx(tile + (i + j) * width, tile + (i + j + k) * width, width);
          }
        }
      }
    }
  }
}

}  // namespace zka::tensor
