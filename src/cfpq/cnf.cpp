#include "cfpq/cnf.hpp"

#include <algorithm>
#include <map>
#include <set>

namespace spbla::cfpq {
namespace {

/// Plain production: lhs -> rhs (rhs empty means epsilon).
struct Production {
    std::string lhs;
    std::vector<std::string> rhs;  // each entry terminal or nonterminal name
};

/// Lowers regex right-hand sides into plain productions with |rhs| <= 2.
class Lowering {
public:
    explicit Lowering(const Grammar& g) : grammar_{g} {
        for (const auto& rule : g.rules()) {
            nonterminals_.insert(rule.lhs);
            productions_.push_back({rule.lhs, {lower(*rule.rhs)}});
        }
    }

    [[nodiscard]] std::vector<Production>& productions() { return productions_; }
    [[nodiscard]] const std::set<std::string>& nonterminals() const {
        return nonterminals_;
    }
    [[nodiscard]] bool is_nonterminal(const std::string& s) const {
        return nonterminals_.contains(s);
    }

private:
    std::string fresh() {
        std::string name = "_N" + std::to_string(counter_++);
        nonterminals_.insert(name);
        return name;
    }

    /// Returns a symbol generating exactly the regex's language.
    std::string lower(const rpq::Regex& re) {
        using Kind = rpq::Regex::Kind;
        switch (re.kind) {
            case Kind::Symbol:
                return re.symbol;
            case Kind::Epsilon: {
                const auto n = fresh();
                productions_.push_back({n, {}});
                return n;
            }
            case Kind::Empty:
                return fresh();  // no productions: derives nothing
            case Kind::Concat: {
                const auto l = lower(*re.left);
                const auto r = lower(*re.right);
                const auto n = fresh();
                productions_.push_back({n, {l, r}});
                return n;
            }
            case Kind::Alt: {
                const auto l = lower(*re.left);
                const auto r = lower(*re.right);
                const auto n = fresh();
                productions_.push_back({n, {l}});
                productions_.push_back({n, {r}});
                return n;
            }
            case Kind::Star: {
                const auto x = lower(*re.left);
                const auto n = fresh();
                productions_.push_back({n, {}});
                productions_.push_back({n, {n, x}});
                return n;
            }
            case Kind::Plus: {
                const auto x = lower(*re.left);
                const auto n = fresh();
                productions_.push_back({n, {x}});
                productions_.push_back({n, {n, x}});
                return n;
            }
            case Kind::Optional: {
                const auto x = lower(*re.left);
                const auto n = fresh();
                productions_.push_back({n, {}});
                productions_.push_back({n, {x}});
                return n;
            }
        }
        return fresh();
    }

    const Grammar& grammar_;
    std::vector<Production> productions_;
    std::set<std::string> nonterminals_;
    int counter_{0};
};

/// Nonterminals deriving the empty word (fixpoint).
std::set<std::string> nullable_set(const std::vector<Production>& prods,
                                   const std::set<std::string>& nonterminals) {
    std::set<std::string> nullable;
    bool changed = true;
    while (changed) {
        changed = false;
        for (const auto& p : prods) {
            if (nullable.contains(p.lhs)) continue;
            const bool all = std::all_of(p.rhs.begin(), p.rhs.end(),
                                         [&](const std::string& s) {
                                             return nonterminals.contains(s) &&
                                                    nullable.contains(s);
                                         });
            if (all) {
                nullable.insert(p.lhs);
                changed = true;
            }
        }
    }
    return nullable;
}

}  // namespace

std::vector<std::string> nullable_nonterminals(const Grammar& g) {
    Lowering low{g};
    const auto nullable = nullable_set(low.productions(), low.nonterminals());
    std::vector<std::string> out;
    for (const auto& nt : g.nonterminals()) {
        if (nullable.contains(nt)) out.push_back(nt);
    }
    return out;
}

CnfGrammar to_cnf(const Grammar& g) {
    Lowering low{g};
    auto& prods = low.productions();
    const auto& nts = low.nonterminals();
    const auto nullable = nullable_set(prods, nts);

    // Epsilon elimination: expand every production over the nullable
    // subsets of its RHS (|rhs| <= 2, so at most 3 non-empty variants).
    std::set<std::pair<std::string, std::vector<std::string>>> expanded;
    for (const auto& p : prods) {
        std::vector<std::vector<std::string>> variants{{}};
        for (const auto& s : p.rhs) {
            std::vector<std::vector<std::string>> next;
            for (const auto& v : variants) {
                auto with = v;
                with.push_back(s);
                next.push_back(std::move(with));
                if (nts.contains(s) && nullable.contains(s)) next.push_back(v);
            }
            variants = std::move(next);
        }
        for (auto& v : variants) {
            if (!v.empty()) expanded.insert({p.lhs, std::move(v)});
        }
    }

    // Unit elimination: unit-pairs closure, then re-anchor non-unit bodies.
    std::map<std::string, std::set<std::string>> unit_reach;  // A => * B
    for (const auto& nt : nts) unit_reach[nt].insert(nt);
    bool changed = true;
    while (changed) {
        changed = false;
        for (const auto& [lhs, rhs] : expanded) {
            if (rhs.size() != 1 || !nts.contains(rhs[0])) continue;
            for (auto& [a, reach] : unit_reach) {
                if (!reach.contains(lhs)) continue;
                for (const auto& b : unit_reach[rhs[0]]) {
                    if (reach.insert(b).second) changed = true;
                }
            }
        }
    }

    std::set<std::pair<std::string, std::vector<std::string>>> final_prods;
    for (const auto& [a, reach] : unit_reach) {
        for (const auto& b : reach) {
            for (const auto& [lhs, rhs] : expanded) {
                if (lhs != b) continue;
                const bool is_unit = rhs.size() == 1 && nts.contains(rhs[0]);
                if (!is_unit) final_prods.insert({a, rhs});
            }
        }
    }

    // Useless-symbol removal: unit elimination inlines the regex lowering's
    // fresh nonterminals, so no rule reachable from the start reads most of
    // them. Keep only the productions of nonterminals the start reaches
    // through binary bodies; terminal lifting below then lifts only the
    // terminals those productions read.
    std::set<std::string> live{g.start_symbol()};
    for (std::vector<std::string> work{g.start_symbol()}; !work.empty();) {
        const std::string lhs = std::move(work.back());
        work.pop_back();
        for (auto it = final_prods.lower_bound({lhs, {}});
             it != final_prods.end() && it->first == lhs; ++it) {
            for (const auto& s : it->second) {
                if (nts.contains(s) && live.insert(s).second) work.push_back(s);
            }
        }
    }
    std::erase_if(final_prods, [&](const auto& p) { return !live.contains(p.first); });

    // Terminal lifting and id assignment.
    CnfGrammar cnf;
    std::map<std::string, Index> id_of;
    const auto intern = [&](const std::string& name) {
        const auto [it, inserted] =
            id_of.try_emplace(name, static_cast<Index>(cnf.nt_names.size()));
        if (inserted) cnf.nt_names.push_back(name);
        return it->second;
    };
    intern(g.start_symbol());
    cnf.start = 0;
    cnf.start_nullable = nullable.contains(g.start_symbol());

    std::map<std::string, Index> term_nt;  // terminal -> lifted nonterminal id
    const auto lift_terminal = [&](const std::string& t) {
        const auto it = term_nt.find(t);
        if (it != term_nt.end()) return it->second;
        const Index id = intern("_T_" + t);
        term_nt.emplace(t, id);
        cnf.terminal_rules.emplace_back(id, t);
        return id;
    };

    std::set<std::pair<Index, std::string>> term_seen;
    std::set<std::tuple<Index, Index, Index>> bin_seen;
    for (const auto& [lhs, rhs] : final_prods) {
        const Index a = intern(lhs);
        if (rhs.size() == 1) {
            // Non-unit single symbol must be a terminal.
            if (term_seen.insert({a, rhs[0]}).second) {
                cnf.terminal_rules.emplace_back(a, rhs[0]);
            }
        } else {
            const Index b = nts.contains(rhs[0]) ? intern(rhs[0]) : lift_terminal(rhs[0]);
            const Index c = nts.contains(rhs[1]) ? intern(rhs[1]) : lift_terminal(rhs[1]);
            if (bin_seen.insert({a, b, c}).second) {
                cnf.binary_rules.emplace_back(a, b, c);
            }
        }
    }
    return cnf;
}

}  // namespace spbla::cfpq
