/// \file cnf.hpp
/// \brief Lowering to Chomsky normal form.
///
/// Azimov's matrix algorithm (and the CYK oracle) need CNF. The paper points
/// out that this transformation "leads to the grammar size increase, and
/// hence worsens performance" — reproduced here: the tensor algorithm skips
/// this lowering entirely, and the benchmark harness reports the size blowup.
///
/// Pipeline: regex RHS -> plain productions (fresh nonterminal per regex
/// node) -> epsilon elimination -> unit elimination -> useless-symbol
/// removal (only the nonterminals the start symbol reaches through binary
/// rules keep their productions) -> terminal lifting. The language is
/// preserved except that derivability of the empty word is recorded in
/// `start_nullable` (the usual CNF convention).
#pragma once

#include <string>
#include <tuple>
#include <vector>

#include "cfpq/grammar.hpp"
#include "core/types.hpp"

namespace spbla::cfpq {

/// A CNF grammar over integer nonterminal ids.
struct CnfGrammar {
    Index start{0};
    std::vector<std::string> nt_names;  ///< id -> display name
    /// A -> a rules as (nonterminal id, terminal label).
    std::vector<std::pair<Index, std::string>> terminal_rules;
    /// A -> B C rules as (A, B, C).
    std::vector<std::tuple<Index, Index, Index>> binary_rules;
    /// Whether the start symbol derives the empty word.
    bool start_nullable{false};

    [[nodiscard]] Index num_nonterminals() const noexcept {
        return static_cast<Index>(nt_names.size());
    }
};

/// Lower a grammar to CNF.
[[nodiscard]] CnfGrammar to_cnf(const Grammar& g);

/// Nonterminals of \p g that derive the empty word (computed on the plain
/// production form; used by the tensor algorithm's initialisation).
[[nodiscard]] std::vector<std::string> nullable_nonterminals(const Grammar& g);

}  // namespace spbla::cfpq
