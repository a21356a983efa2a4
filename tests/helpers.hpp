/// \file helpers.hpp
/// \brief Shared utilities for the test suite.
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "backend/context.hpp"
// The test oracles cross-check storage-engine results against the concrete
// formats directly, so this is one of the sanctioned leak sites.
#include "core/convert.hpp"
#include "core/coo.hpp"    // lint:allow(format-leak)
#include "core/csr.hpp"    // lint:allow(format-leak)
#include "core/dense.hpp"  // lint:allow(format-leak)
#include "core/spvector.hpp"
#include "storage/matrix.hpp"
#include "util/rng.hpp"

namespace spbla::testing {

/// Shared parallel context for the whole test binary.
inline backend::Context& ctx() {
    static backend::Context instance{backend::Policy::Parallel};
    return instance;
}

/// Shared sequential context (the CPU-fallback backend path).
inline backend::Context& seq_ctx() {
    static backend::Context instance{backend::Policy::Sequential};
    return instance;
}

/// Fixture asserting the MemoryTracker leak report on teardown: every op
/// test runs against the shared contexts, so any kernel that leaks device
/// scratch (or double-frees, driving the balance negative and thus huge)
/// fails the *specific test* that leaked rather than poisoning the footprint
/// numbers of whatever benchmark runs next. Op suites adopt it by deriving
/// their suite type: `using SpGemm = spbla::testing::CheckedContext;`.
class CheckedContext : public ::testing::Test {
protected:
    void SetUp() override {
        start_parallel_ = ctx().tracker().current_bytes();
        start_sequential_ = seq_ctx().tracker().current_bytes();
    }

    void TearDown() override {
        EXPECT_EQ(ctx().tracker().current_bytes(), start_parallel_)
            << "parallel context leaked device memory: "
            << ctx().tracker().leak_report();
        EXPECT_EQ(seq_ctx().tracker().current_bytes(), start_sequential_)
            << "sequential context leaked device memory: "
            << seq_ctx().tracker().leak_report();
    }

private:
    std::size_t start_parallel_{0};
    std::size_t start_sequential_{0};
};

/// Parameterised-test variant of CheckedContext (for TEST_P sweeps).
template <class Param>
class CheckedContextWithParam : public CheckedContext,
                                public ::testing::WithParamInterface<Param> {};

/// Random Boolean matrix with ~density fraction of cells set.
inline CsrMatrix random_csr(Index nrows, Index ncols, double density,
                            std::uint64_t seed) {
    util::Rng rng{seed};
    std::vector<Coord> coords;
    const auto target = static_cast<std::size_t>(
        density * static_cast<double>(nrows) * static_cast<double>(ncols));
    for (std::size_t k = 0; k < target; ++k) {
        coords.push_back({static_cast<Index>(rng.below(nrows)),
                          static_cast<Index>(rng.below(ncols))});
    }
    return CsrMatrix::from_coords(nrows, ncols, std::move(coords));
}

/// \p src with every row that \p keep rejects emptied.
inline CsrMatrix keep_rows(const CsrMatrix& src, bool (*keep)(Index)) {
    std::vector<Coord> cells;
    for (const auto& cell : src.to_coords()) {
        if (keep(cell.row)) cells.push_back(cell);
    }
    return CsrMatrix::from_coords(src.nrows(), src.ncols(), std::move(cells));
}

/// Same distribution, wrapped in the storage-engine handle (bound to the
/// shared parallel context so cached representations charge its tracker).
inline Matrix random_matrix(Index nrows, Index ncols, double density,
                            std::uint64_t seed) {
    return Matrix{random_csr(nrows, ncols, density, seed), ctx()};
}

/// Random word over an alphabet of labels.
inline std::vector<std::string> random_word(const std::vector<std::string>& alphabet,
                                            std::size_t length, util::Rng& rng) {
    std::vector<std::string> word;
    word.reserve(length);
    for (std::size_t i = 0; i < length; ++i) {
        word.push_back(alphabet[rng.below(alphabet.size())]);
    }
    return word;
}

}  // namespace spbla::testing
