/// \file test_thread_safety.cpp
/// \brief Const dispatched ops on one shared handle under real concurrency.
///
/// N pool threads run multiply, transpose, reduce_to_column and mxv on the
/// same const Matrix under the Parallel context; each must get the
/// single-threaded result. The test carries the `parallel` ctest label, so
/// the tsan preset (`ctest -L parallel`) race-checks it.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <vector>

#include "backend/context.hpp"
#include "helpers.hpp"
#include "storage/dispatch.hpp"

namespace spbla {
namespace {

constexpr std::size_t kThreads = 8;

TEST(ThreadSafety, ConstDispatchedOpsOnASharedHandleMatchSingleThreaded) {
    backend::Context dev{backend::Policy::Parallel, kThreads};
    {
        const Matrix m{testing::random_csr(96, 96, 0.08, /*seed=*/7), dev};
        std::vector<Index> set;
        for (Index i = 0; i < 96; i += 3) set.push_back(i);
        const auto x = SpVector::from_indices(96, std::move(set));

        const Matrix want_square = storage::multiply(dev, m, m);
        const Matrix want_transpose = storage::transpose(dev, m);
        const SpVector want_reduce = storage::reduce_to_column(dev, m);
        const SpVector want_mxv = storage::mxv(dev, m, x);

        std::atomic<int> mismatches{0};
        dev.pool()->run_dynamic(kThreads * 4, [&](std::size_t t) {
            bool same = true;
            switch (t % 4) {
                case 0: same = storage::multiply(dev, m, m) == want_square; break;
                case 1: same = storage::transpose(dev, m) == want_transpose; break;
                case 2: same = storage::reduce_to_column(dev, m) == want_reduce; break;
                default: same = storage::mxv(dev, m, x) == want_mxv; break;
            }
            if (!same) mismatches.fetch_add(1);
        });
        EXPECT_EQ(mismatches.load(), 0);
    }
    EXPECT_EQ(dev.tracker().current_bytes(), 0u) << dev.tracker().leak_report();
}

}  // namespace
}  // namespace spbla
