/// \file test_integration.cpp
/// \brief Cross-module scenarios exercising the whole stack the way the
/// benchmark harness and the examples do.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "algorithms/closure.hpp"
#include "cfpq/azimov.hpp"
#include "cfpq/cyk.hpp"
#include "cfpq/paths.hpp"
#include "cfpq/queries.hpp"
#include "cfpq/tensor.hpp"
#include "cfpq/worklist.hpp"
#include "data/io.hpp"
#include "data/lubm.hpp"
#include "data/rdflike.hpp"
#include "helpers.hpp"
#include "ops/spgemm.hpp"
#include "rpq/engine.hpp"
#include "rpq/query_templates.hpp"
#include "spbla/spbla.h"

namespace spbla {
namespace {

using testing::ctx;

TEST(Integration, RpqOverLubmWithFrequentLabels) {
    // The Figure 2 pipeline end to end: generate LUBM, pick the most
    // frequent labels, instantiate a template, build the index.
    const auto g = data::make_lubm(3);
    const auto labels = g.labels_by_frequency();
    ASSERT_GE(labels.size(), 6u);
    for (const auto* name : {"Q1", "Q2", "Q4^2", "Q9^3", "Q11^2"}) {
        const auto& tpl = rpq::template_by_name(name);
        const auto q = rpq::minimize(
            rpq::determinize(rpq::glushkov(*tpl.instantiate(labels))));
        const auto index = rpq::build_index(ctx(), g, q);
        EXPECT_GT(index.reachable.nnz(), 0u) << name;
        EXPECT_EQ(index.reachable, rpq::evaluate_reference(g, q)) << name;
    }
}

TEST(Integration, CfpqPipelineOverSerializedGraph) {
    // Round-trip a generated graph through the triples format, then run all
    // three CFPQ algorithms on the loaded copy.
    auto original = data::make_ontology(50, 1.0);
    original.add_inverse_labels();
    std::stringstream ss;
    data::save_triples(ss, original);
    const auto loaded = data::load_triples(ss);

    const auto grammar = cfpq::query_g1();
    const auto ref = cfpq::worklist_cfpq(loaded, grammar);
    EXPECT_EQ(cfpq::azimov_cfpq(ctx(), loaded, grammar).reachable(), ref);
    EXPECT_EQ(cfpq::tensor_cfpq(ctx(), loaded, grammar).reachable(grammar), ref);
}

TEST(Integration, CApiReproducesOpsResults) {
    // Drive the same computation through the C API and the C++ API.
    const auto a = testing::random_csr(20, 20, 0.1, 900);
    const auto b = testing::random_csr(20, 20, 0.1, 901);
    const auto expected = ops::multiply(ctx(), a, b);

    ASSERT_EQ(spbla_Initialize(SPBLA_INIT_DEFAULT), SPBLA_STATUS_SUCCESS);
    spbla_Matrix ma = nullptr, mb = nullptr, mc = nullptr;
    ASSERT_EQ(spbla_Matrix_New(&ma, 20, 20), SPBLA_STATUS_SUCCESS);
    ASSERT_EQ(spbla_Matrix_New(&mb, 20, 20), SPBLA_STATUS_SUCCESS);
    ASSERT_EQ(spbla_Matrix_New(&mc, 20, 20), SPBLA_STATUS_SUCCESS);

    const auto upload = [](spbla_Matrix m, const CsrMatrix& src) {
        std::vector<spbla_Index> rows, cols;
        for (const auto& c : src.to_coords()) {
            rows.push_back(c.row);
            cols.push_back(c.col);
        }
        return spbla_Matrix_Build(m, rows.data(), cols.data(),
                                  static_cast<spbla_Index>(rows.size()), SPBLA_HINT_NO);
    };
    ASSERT_EQ(upload(ma, a), SPBLA_STATUS_SUCCESS);
    ASSERT_EQ(upload(mb, b), SPBLA_STATUS_SUCCESS);
    ASSERT_EQ(spbla_MxM(mc, ma, mb, SPBLA_HINT_NO), SPBLA_STATUS_SUCCESS);

    spbla_Index nvals = 0;
    ASSERT_EQ(spbla_Matrix_Nvals(mc, &nvals), SPBLA_STATUS_SUCCESS);
    std::vector<spbla_Index> rows(nvals), cols(nvals);
    ASSERT_EQ(spbla_Matrix_ExtractPairs(mc, rows.data(), cols.data(), &nvals),
              SPBLA_STATUS_SUCCESS);
    std::vector<Coord> coords;
    for (spbla_Index k = 0; k < nvals; ++k) coords.push_back({rows[k], cols[k]});
    EXPECT_EQ(CsrMatrix::from_coords(20, 20, coords), expected);

    ASSERT_EQ(spbla_Matrix_Free(&ma), SPBLA_STATUS_SUCCESS);
    ASSERT_EQ(spbla_Matrix_Free(&mb), SPBLA_STATUS_SUCCESS);
    ASSERT_EQ(spbla_Matrix_Free(&mc), SPBLA_STATUS_SUCCESS);
    ASSERT_EQ(spbla_Finalize(), SPBLA_STATUS_SUCCESS);
}

TEST(Integration, TensorIndexSupportsPathValidation) {
    // Tensor index + Azimov extractor on the same graph agree on witnesses:
    // any pair in the tensor answer has a valid extracted path.
    auto geo = data::make_geospecies(30, 5);
    geo.add_inverse_labels();
    const auto grammar = cfpq::query_geo();
    const auto tns = cfpq::tensor_cfpq(ctx(), geo, grammar);
    const auto mtx = cfpq::azimov_cfpq(ctx(), geo, grammar);
    ASSERT_EQ(tns.reachable(grammar), mtx.reachable());

    const cfpq::PathExtractor extractor{ctx(), geo, mtx};
    const auto cnf = cfpq::to_cnf(grammar);
    std::size_t checked = 0;
    for (const auto& pair : tns.reachable(grammar).to_coords()) {
        const auto words = extractor.extract(pair.row, pair.col, 10, 3);
        for (const auto& w : words) EXPECT_TRUE(cfpq::cyk_accepts(cnf, w));
        if (++checked == 10) break;
    }
}

TEST(Integration, MemoryStaysBalancedAcrossThePipeline) {
    // Everything allocated on the simulated device must be released.
    backend::Context local{backend::Policy::Parallel, 2};
    const auto g = data::make_lubm(2);
    const auto q = rpq::compile_query("memberOf subOrganizationOf*");
    (void)rpq::build_index(local, g, q);
    EXPECT_EQ(local.tracker().current_bytes(), 0u);
    EXPECT_GT(local.tracker().peak_bytes(), 0u);
    EXPECT_GT(local.tracker().alloc_count(), 0u);
}

TEST(Integration, SequentialAndParallelAgreeOnFullCfpq) {
    backend::Context seq{backend::Policy::Sequential};
    backend::Context par{backend::Policy::Parallel, 2};
    auto onto = data::make_ontology(40, 0.5);
    onto.add_inverse_labels();
    const auto grammar = cfpq::query_g2();
    EXPECT_EQ(cfpq::azimov_cfpq(seq, onto, grammar).reachable(),
              cfpq::azimov_cfpq(par, onto, grammar).reachable());
}

}  // namespace
}  // namespace spbla
