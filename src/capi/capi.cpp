/// \file capi.cpp
/// \brief Implementation of the C-compatible API (include/spbla/spbla.h).
///
/// Every entry point converts C++ exceptions into status codes at the
/// boundary and records the message in a thread-local slot, mirroring how
/// cuBool surfaces device errors through its C API.

#include "spbla/spbla.h"

#include <atomic>
#include <memory>
#include <string>
#include <utility>

#include "algorithms/closure.hpp"
#include "backend/context.hpp"
#include "capi/handles.hpp"
#include "incr/incremental.hpp"
#include "incr/memo.hpp"
#include "prof/prof.hpp"
#include "storage/dispatch.hpp"
#include "storage/matrix.hpp"
#include "telemetry/metrics.hpp"

namespace {

std::unique_ptr<spbla::backend::Context> g_context;
std::atomic<std::uint64_t> g_live_objects{0};
thread_local std::string g_last_error;

spbla_Status to_c_status(spbla::Status s) noexcept {
    switch (s) {
        case spbla::Status::Ok: return SPBLA_STATUS_SUCCESS;
        case spbla::Status::InvalidArgument: return SPBLA_STATUS_INVALID_ARGUMENT;
        case spbla::Status::DimensionMismatch: return SPBLA_STATUS_DIMENSION_MISMATCH;
        case spbla::Status::OutOfRange: return SPBLA_STATUS_OUT_OF_RANGE;
        case spbla::Status::NotInitialized: return SPBLA_STATUS_NOT_INITIALIZED;
        case spbla::Status::InvalidState: return SPBLA_STATUS_INVALID_STATE;
    }
    return SPBLA_STATUS_ERROR;
}

/// Run \p body, translating exceptions to status codes at the C boundary.
template <class Body>
spbla_Status guarded(Body&& body) noexcept {
    try {
        g_last_error.clear();
        return body();
    } catch (const spbla::Error& e) {
        g_last_error = e.what();
        return to_c_status(e.status());
    } catch (const std::exception& e) {
        g_last_error = e.what();
        return SPBLA_STATUS_ERROR;
    } catch (...) {
        g_last_error = "unknown error";
        return SPBLA_STATUS_ERROR;
    }
}

/// True iff \p hint names an spbla_OpHint value; records the error if not.
bool known_op_hint(spbla_OpHint hint, const char* where) {
    if (hint == SPBLA_HINT_NO || hint == SPBLA_HINT_ACCUMULATE) return true;
    g_last_error = std::string{where} + ": unknown op hint";
    return false;
}

spbla_Status require_init() noexcept {
    if (!g_context) {
        g_last_error = "spbla is not initialized";
        return SPBLA_STATUS_NOT_INITIALIZED;
    }
    return SPBLA_STATUS_SUCCESS;
}

}  // namespace

extern "C" {

spbla_Status spbla_Initialize(spbla_InitHint hint) {
    return guarded([&]() -> spbla_Status {
        if (g_context) {
            g_last_error = "spbla is already initialized";
            return SPBLA_STATUS_INVALID_STATE;
        }
        if (hint != SPBLA_INIT_DEFAULT && hint != SPBLA_INIT_SEQUENTIAL) {
            g_last_error = "spbla_Initialize: unknown hint";
            return SPBLA_STATUS_INVALID_ARGUMENT;
        }
        const auto policy = hint == SPBLA_INIT_SEQUENTIAL
                                ? spbla::backend::Policy::Sequential
                                : spbla::backend::Policy::Parallel;
        g_context = std::make_unique<spbla::backend::Context>(policy);
        return SPBLA_STATUS_SUCCESS;
    });
}

spbla_Status spbla_Finalize(void) {
    return guarded([]() -> spbla_Status {
        if (auto s = require_init(); s != SPBLA_STATUS_SUCCESS) return s;
        if (g_live_objects.load() != 0) {
            g_last_error = "spbla_Finalize: live matrix handles remain";
            return SPBLA_STATUS_INVALID_STATE;
        }
        // The incremental op memo retains matrices charged to this context's
        // tracker; drop them before the leak-checked teardown.
        spbla::incr::memo().clear();
        g_context.reset();
        return SPBLA_STATUS_SUCCESS;
    });
}

int spbla_IsInitialized(void) { return g_context ? 1 : 0; }

const char* spbla_Status_Name(spbla_Status status) {
    switch (status) {
        case SPBLA_STATUS_SUCCESS: return "SUCCESS";
        case SPBLA_STATUS_INVALID_ARGUMENT: return "INVALID_ARGUMENT";
        case SPBLA_STATUS_DIMENSION_MISMATCH: return "DIMENSION_MISMATCH";
        case SPBLA_STATUS_OUT_OF_RANGE: return "OUT_OF_RANGE";
        case SPBLA_STATUS_NOT_INITIALIZED: return "NOT_INITIALIZED";
        case SPBLA_STATUS_INVALID_STATE: return "INVALID_STATE";
        case SPBLA_STATUS_ERROR: return "ERROR";
    }
    return "UNKNOWN";
}

const char* spbla_GetLastError(void) { return g_last_error.c_str(); }

uint32_t spbla_GetVersion(void) { return 1 * 10000 + 0 * 100 + 0; }

uint64_t spbla_GetLiveObjects(void) { return g_live_objects.load(); }

spbla_Status spbla_ProfEnable(int level) {
    return guarded([&]() -> spbla_Status {
        if (level < 0 || level > 2) {
            g_last_error = "spbla_ProfEnable: level must be 0, 1 or 2";
            return SPBLA_STATUS_INVALID_ARGUMENT;
        }
        spbla::prof::set_runtime_level(level);
        return SPBLA_STATUS_SUCCESS;
    });
}

spbla_Status spbla_ProfDump(const char* path) {
    return guarded([&]() -> spbla_Status {
        if (path == nullptr || path[0] == '\0') {
            g_last_error = "spbla_ProfDump: path must be non-empty";
            return SPBLA_STATUS_INVALID_ARGUMENT;
        }
        if (!spbla::prof::write_chrome_trace(path)) {
            g_last_error = std::string("spbla_ProfDump: cannot write ") + path;
            return SPBLA_STATUS_ERROR;
        }
        return SPBLA_STATUS_SUCCESS;
    });
}

spbla_Status spbla_MetricsDump(const char* path, spbla_MetricsFormat format) {
    return guarded([&]() -> spbla_Status {
        if (path == nullptr || path[0] == '\0') {
            g_last_error = "spbla_MetricsDump: path must be non-empty";
            return SPBLA_STATUS_INVALID_ARGUMENT;
        }
        if (format != SPBLA_METRICS_JSON && format != SPBLA_METRICS_PROMETHEUS) {
            g_last_error = "spbla_MetricsDump: unknown format";
            return SPBLA_STATUS_INVALID_ARGUMENT;
        }
        const auto fmt = format == SPBLA_METRICS_PROMETHEUS
                             ? spbla::telemetry::ExportFormat::Prometheus
                             : spbla::telemetry::ExportFormat::Json;
        if (!spbla::telemetry::write_file(path, fmt)) {
            g_last_error = std::string("spbla_MetricsDump: cannot write ") + path;
            return SPBLA_STATUS_ERROR;
        }
        return SPBLA_STATUS_SUCCESS;
    });
}

spbla_Status spbla_MetricsReset(void) {
    return guarded([]() -> spbla_Status {
        spbla::telemetry::reset();
        return SPBLA_STATUS_SUCCESS;
    });
}

spbla_Status spbla_SetFormatHint(spbla_FormatHint hint) {
    return guarded([&]() -> spbla_Status {
        if (hint != SPBLA_FORMAT_AUTO && hint != SPBLA_FORMAT_CSR) {
            g_last_error = "spbla_SetFormatHint: unknown hint";
            return SPBLA_STATUS_INVALID_ARGUMENT;
        }
        return SPBLA_STATUS_SUCCESS;
    });
}

spbla_Status spbla_Matrix_SetFormatHint(spbla_Matrix matrix, spbla_FormatHint hint) {
    return guarded([&]() -> spbla_Status {
        if (auto s = require_init(); s != SPBLA_STATUS_SUCCESS) return s;
        if (matrix == nullptr) {
            g_last_error = "spbla_Matrix_SetFormatHint: null handle";
            return SPBLA_STATUS_INVALID_ARGUMENT;
        }
        if (hint != SPBLA_FORMAT_CSR) {
            g_last_error = "spbla_Matrix_SetFormatHint: hint must name a format";
            return SPBLA_STATUS_INVALID_ARGUMENT;
        }
        return SPBLA_STATUS_SUCCESS;
    });
}

spbla_Status spbla_Matrix_New(spbla_Matrix* matrix, spbla_Index nrows, spbla_Index ncols) {
    return guarded([&]() -> spbla_Status {
        if (auto s = require_init(); s != SPBLA_STATUS_SUCCESS) return s;
        if (matrix == nullptr) {
            g_last_error = "spbla_Matrix_New: null output handle";
            return SPBLA_STATUS_INVALID_ARGUMENT;
        }
        // FFI handles are raw by contract; freed in spbla_Matrix_Free.
        *matrix = new spbla_Matrix_t{spbla::Matrix{nrows, ncols, *g_context}};  // lint:allow(raw-new-delete)
        g_live_objects.fetch_add(1);
        return SPBLA_STATUS_SUCCESS;
    });
}

spbla_Status spbla_Matrix_Free(spbla_Matrix* matrix) {
    return guarded([&]() -> spbla_Status {
        if (auto s = require_init(); s != SPBLA_STATUS_SUCCESS) return s;
        if (matrix == nullptr || *matrix == nullptr) {
            g_last_error = "spbla_Matrix_Free: null handle";
            return SPBLA_STATUS_INVALID_ARGUMENT;
        }
        delete *matrix;  // lint:allow(raw-new-delete)
        *matrix = nullptr;
        g_live_objects.fetch_sub(1);
        return SPBLA_STATUS_SUCCESS;
    });
}

spbla_Status spbla_Matrix_Build(spbla_Matrix matrix, const spbla_Index* rows,
                                const spbla_Index* cols, spbla_Index nvals,
                                spbla_OpHint hint) {
    return guarded([&]() -> spbla_Status {
        if (auto s = require_init(); s != SPBLA_STATUS_SUCCESS) return s;
        if (matrix == nullptr || (nvals > 0 && (rows == nullptr || cols == nullptr))) {
            g_last_error = "spbla_Matrix_Build: null argument";
            return SPBLA_STATUS_INVALID_ARGUMENT;
        }
        if (!known_op_hint(hint, "spbla_Matrix_Build")) return SPBLA_STATUS_INVALID_ARGUMENT;
        std::vector<spbla::Coord> coords;
        coords.reserve(nvals);
        for (spbla_Index k = 0; k < nvals; ++k) coords.push_back({rows[k], cols[k]});
        auto built = spbla::Matrix::from_coords(matrix->data.nrows(), matrix->data.ncols(),
                                                std::move(coords), *g_context);
        matrix->data = hint == SPBLA_HINT_ACCUMULATE
                           ? spbla::storage::ewise_add(*g_context, matrix->data, built)
                           : std::move(built);
        return SPBLA_STATUS_SUCCESS;
    });
}

spbla_Status spbla_Matrix_ExtractPairs(spbla_Matrix matrix, spbla_Index* rows,
                                       spbla_Index* cols, spbla_Index* nvals) {
    return guarded([&]() -> spbla_Status {
        if (auto s = require_init(); s != SPBLA_STATUS_SUCCESS) return s;
        if (matrix == nullptr || nvals == nullptr) {
            g_last_error = "spbla_Matrix_ExtractPairs: null argument";
            return SPBLA_STATUS_INVALID_ARGUMENT;
        }
        const auto coords = matrix->data.to_coords();
        if (coords.size() > *nvals) {
            g_last_error = "spbla_Matrix_ExtractPairs: buffer too small";
            *nvals = static_cast<spbla_Index>(coords.size());
            return SPBLA_STATUS_OUT_OF_RANGE;
        }
        if (!coords.empty() && (rows == nullptr || cols == nullptr)) {
            g_last_error = "spbla_Matrix_ExtractPairs: null buffer";
            return SPBLA_STATUS_INVALID_ARGUMENT;
        }
        for (std::size_t k = 0; k < coords.size(); ++k) {
            rows[k] = coords[k].row;
            cols[k] = coords[k].col;
        }
        *nvals = static_cast<spbla_Index>(coords.size());
        return SPBLA_STATUS_SUCCESS;
    });
}

spbla_Status spbla_Matrix_Nrows(spbla_Matrix matrix, spbla_Index* nrows) {
    return guarded([&]() -> spbla_Status {
        if (auto s = require_init(); s != SPBLA_STATUS_SUCCESS) return s;
        if (matrix == nullptr || nrows == nullptr) return SPBLA_STATUS_INVALID_ARGUMENT;
        *nrows = matrix->data.nrows();
        return SPBLA_STATUS_SUCCESS;
    });
}

spbla_Status spbla_Matrix_Ncols(spbla_Matrix matrix, spbla_Index* ncols) {
    return guarded([&]() -> spbla_Status {
        if (auto s = require_init(); s != SPBLA_STATUS_SUCCESS) return s;
        if (matrix == nullptr || ncols == nullptr) return SPBLA_STATUS_INVALID_ARGUMENT;
        *ncols = matrix->data.ncols();
        return SPBLA_STATUS_SUCCESS;
    });
}

spbla_Status spbla_Matrix_Nvals(spbla_Matrix matrix, spbla_Index* nvals) {
    return guarded([&]() -> spbla_Status {
        if (auto s = require_init(); s != SPBLA_STATUS_SUCCESS) return s;
        if (matrix == nullptr || nvals == nullptr) return SPBLA_STATUS_INVALID_ARGUMENT;
        *nvals = static_cast<spbla_Index>(matrix->data.nnz());
        return SPBLA_STATUS_SUCCESS;
    });
}

spbla_Status spbla_Matrix_Duplicate(spbla_Matrix matrix, spbla_Matrix* duplicate) {
    return guarded([&]() -> spbla_Status {
        if (auto s = require_init(); s != SPBLA_STATUS_SUCCESS) return s;
        if (matrix == nullptr || duplicate == nullptr) return SPBLA_STATUS_INVALID_ARGUMENT;
        *duplicate = new spbla_Matrix_t{matrix->data};  // lint:allow(raw-new-delete)
        g_live_objects.fetch_add(1);
        return SPBLA_STATUS_SUCCESS;
    });
}

spbla_Status spbla_MxM(spbla_Matrix result, spbla_Matrix a, spbla_Matrix b,
                       spbla_OpHint hint) {
    return guarded([&]() -> spbla_Status {
        if (auto s = require_init(); s != SPBLA_STATUS_SUCCESS) return s;
        if (result == nullptr || a == nullptr || b == nullptr)
            return SPBLA_STATUS_INVALID_ARGUMENT;
        if (!known_op_hint(hint, "spbla_MxM")) return SPBLA_STATUS_INVALID_ARGUMENT;
        result->data = hint == SPBLA_HINT_ACCUMULATE
                           ? spbla::storage::multiply_add(*g_context, result->data,
                                                          a->data, b->data)
                           : spbla::storage::multiply(*g_context, a->data, b->data);
        return SPBLA_STATUS_SUCCESS;
    });
}

spbla_Status spbla_Matrix_EWiseAdd(spbla_Matrix result, spbla_Matrix a, spbla_Matrix b) {
    return guarded([&]() -> spbla_Status {
        if (auto s = require_init(); s != SPBLA_STATUS_SUCCESS) return s;
        if (result == nullptr || a == nullptr || b == nullptr)
            return SPBLA_STATUS_INVALID_ARGUMENT;
        result->data = spbla::storage::ewise_add(*g_context, a->data, b->data);
        return SPBLA_STATUS_SUCCESS;
    });
}

spbla_Status spbla_Matrix_EWiseMult(spbla_Matrix result, spbla_Matrix a, spbla_Matrix b) {
    return guarded([&]() -> spbla_Status {
        if (auto s = require_init(); s != SPBLA_STATUS_SUCCESS) return s;
        if (result == nullptr || a == nullptr || b == nullptr)
            return SPBLA_STATUS_INVALID_ARGUMENT;
        result->data = spbla::storage::ewise_mult(*g_context, a->data, b->data);
        return SPBLA_STATUS_SUCCESS;
    });
}

spbla_Status spbla_Kronecker(spbla_Matrix result, spbla_Matrix a, spbla_Matrix b) {
    return guarded([&]() -> spbla_Status {
        if (auto s = require_init(); s != SPBLA_STATUS_SUCCESS) return s;
        if (result == nullptr || a == nullptr || b == nullptr)
            return SPBLA_STATUS_INVALID_ARGUMENT;
        result->data = spbla::storage::kronecker(*g_context, a->data, b->data);
        return SPBLA_STATUS_SUCCESS;
    });
}

spbla_Status spbla_Matrix_Transpose(spbla_Matrix result, spbla_Matrix a) {
    return guarded([&]() -> spbla_Status {
        if (auto s = require_init(); s != SPBLA_STATUS_SUCCESS) return s;
        if (result == nullptr || a == nullptr) return SPBLA_STATUS_INVALID_ARGUMENT;
        result->data = spbla::storage::transpose(*g_context, a->data);
        return SPBLA_STATUS_SUCCESS;
    });
}

spbla_Status spbla_Matrix_ExtractSubMatrix(spbla_Matrix result, spbla_Matrix a,
                                           spbla_Index row0, spbla_Index col0,
                                           spbla_Index m, spbla_Index n) {
    return guarded([&]() -> spbla_Status {
        if (auto s = require_init(); s != SPBLA_STATUS_SUCCESS) return s;
        if (result == nullptr || a == nullptr) return SPBLA_STATUS_INVALID_ARGUMENT;
        result->data = spbla::storage::submatrix(*g_context, a->data, row0, col0, m, n);
        return SPBLA_STATUS_SUCCESS;
    });
}

spbla_Status spbla_Matrix_Reduce(spbla_Matrix result, spbla_Matrix a) {
    return guarded([&]() -> spbla_Status {
        if (auto s = require_init(); s != SPBLA_STATUS_SUCCESS) return s;
        if (result == nullptr || a == nullptr) return SPBLA_STATUS_INVALID_ARGUMENT;
        const auto v = spbla::storage::reduce_to_column(*g_context, a->data);
        std::vector<spbla::Coord> coords;
        coords.reserve(v.nnz());
        for (const auto i : v.indices()) coords.push_back({i, 0});
        result->data = spbla::Matrix::from_coords(a->data.nrows(), 1, std::move(coords),
                                                  *g_context);
        return SPBLA_STATUS_SUCCESS;
    });
}

namespace {

/// Build a cell matrix at \p nrows × \p ncols from parallel coordinate arrays.
spbla::Matrix cells_from_arrays(spbla_Index nrows, spbla_Index ncols,
                                const spbla_Index* rows, const spbla_Index* cols,
                                spbla_Index nvals) {
    std::vector<spbla::Coord> coords;
    coords.reserve(nvals);
    for (spbla_Index k = 0; k < nvals; ++k) coords.push_back({rows[k], cols[k]});
    return spbla::Matrix::from_coords(nrows, ncols, std::move(coords), *g_context);
}

}  // namespace

spbla_Status spbla_MatrixApplyDelta(spbla_Matrix matrix, const spbla_Index* add_rows,
                                    const spbla_Index* add_cols, spbla_Index n_add,
                                    const spbla_Index* del_rows, const spbla_Index* del_cols,
                                    spbla_Index n_del) {
    return guarded([&]() -> spbla_Status {
        if (auto s = require_init(); s != SPBLA_STATUS_SUCCESS) return s;
        if (matrix == nullptr || (n_add > 0 && (add_rows == nullptr || add_cols == nullptr)) ||
            (n_del > 0 && (del_rows == nullptr || del_cols == nullptr))) {
            g_last_error = "spbla_MatrixApplyDelta: null argument";
            return SPBLA_STATUS_INVALID_ARGUMENT;
        }
        const auto nr = matrix->data.nrows();
        const auto nc = matrix->data.ncols();
        const auto adds = cells_from_arrays(nr, nc, add_rows, add_cols, n_add);
        const auto dels = cells_from_arrays(nr, nc, del_rows, del_cols, n_del);
        matrix->data.apply_delta(adds, dels, *g_context);
        return SPBLA_STATUS_SUCCESS;
    });
}

spbla_Status spbla_ClosureIncremental(spbla_Matrix closure, spbla_Matrix adj,
                                      const spbla_Index* add_rows, const spbla_Index* add_cols,
                                      spbla_Index n_add, const spbla_Index* del_rows,
                                      const spbla_Index* del_cols, spbla_Index n_del) {
    return guarded([&]() -> spbla_Status {
        if (auto s = require_init(); s != SPBLA_STATUS_SUCCESS) return s;
        if (closure == nullptr || adj == nullptr ||
            (n_add > 0 && (add_rows == nullptr || add_cols == nullptr)) ||
            (n_del > 0 && (del_rows == nullptr || del_cols == nullptr))) {
            g_last_error = "spbla_ClosureIncremental: null argument";
            return SPBLA_STATUS_INVALID_ARGUMENT;
        }
        auto& ctx = *g_context;
        const auto n = adj->data.nrows();
        if (adj->data.ncols() != n || closure->data.nrows() != n ||
            closure->data.ncols() != n) {
            g_last_error = "spbla_ClosureIncremental: adj must be square and closure "
                           "of the same shape";
            return SPBLA_STATUS_DIMENSION_MISMATCH;
        }
        const auto adds = cells_from_arrays(n, n, add_rows, add_cols, n_add);
        const auto dels = cells_from_arrays(n, n, del_rows, del_cols, n_del);
        // Normalize to effective deltas against the pre-batch adjacency:
        // add_eff ∩ A = ∅, del_eff ⊆ A, and a cell named by both arrays is
        // treated as present afterwards (insert wins). An empty side needs
        // no op.
        const auto add_eff = n_add == 0 ? spbla::Matrix{n, n, ctx}
                                        : spbla::storage::ewise_diff(ctx, adds, adj->data);
        spbla::Matrix del_eff{n, n, ctx};
        if (n_del != 0) {
            del_eff = spbla::storage::ewise_mult(ctx, dels, adj->data);
            if (n_add != 0) del_eff = spbla::storage::ewise_diff(ctx, del_eff, adds);
        }
        // The batch is folded into a new handle and committed only after the
        // closure update succeeds, so a failed call leaves both handles as
        // they were.
        spbla::Matrix after = adj->data.with_delta(adds, dels, ctx);
        if (closure->data.empty()) {
            // An empty closure handle requests a scratch build (it is only a
            // valid pre-batch closure when the graph itself was empty).
            closure->data = spbla::algorithms::transitive_closure(
                ctx, after, spbla::algorithms::ClosureStrategy::Delta);
        } else {
            (void)spbla::incr::update_closure(ctx, closure->data, after, add_eff,
                                              del_eff);
        }
        adj->data = std::move(after);
        return SPBLA_STATUS_SUCCESS;
    });
}

spbla_Status spbla_Vector_New(spbla_Vector* vector, spbla_Index size) {
    return guarded([&]() -> spbla_Status {
        if (auto s = require_init(); s != SPBLA_STATUS_SUCCESS) return s;
        if (vector == nullptr) return SPBLA_STATUS_INVALID_ARGUMENT;
        // FFI handles are raw by contract; freed in spbla_Vector_Free.
        *vector = new spbla_Vector_t{spbla::SpVector{size}};  // lint:allow(raw-new-delete)
        g_live_objects.fetch_add(1);
        return SPBLA_STATUS_SUCCESS;
    });
}

spbla_Status spbla_Vector_Free(spbla_Vector* vector) {
    return guarded([&]() -> spbla_Status {
        if (auto s = require_init(); s != SPBLA_STATUS_SUCCESS) return s;
        if (vector == nullptr || *vector == nullptr)
            return SPBLA_STATUS_INVALID_ARGUMENT;
        delete *vector;  // lint:allow(raw-new-delete)
        *vector = nullptr;
        g_live_objects.fetch_sub(1);
        return SPBLA_STATUS_SUCCESS;
    });
}

spbla_Status spbla_Vector_Build(spbla_Vector vector, const spbla_Index* indices,
                                spbla_Index nvals) {
    return guarded([&]() -> spbla_Status {
        if (auto s = require_init(); s != SPBLA_STATUS_SUCCESS) return s;
        if (vector == nullptr || (nvals > 0 && indices == nullptr))
            return SPBLA_STATUS_INVALID_ARGUMENT;
        vector->data = spbla::SpVector::from_indices(
            vector->data.size(), std::vector<spbla::Index>(indices, indices + nvals));
        return SPBLA_STATUS_SUCCESS;
    });
}

spbla_Status spbla_Vector_ExtractValues(spbla_Vector vector, spbla_Index* indices,
                                        spbla_Index* nvals) {
    return guarded([&]() -> spbla_Status {
        if (auto s = require_init(); s != SPBLA_STATUS_SUCCESS) return s;
        if (vector == nullptr || nvals == nullptr)
            return SPBLA_STATUS_INVALID_ARGUMENT;
        const auto& idx = vector->data.indices();
        if (idx.size() > *nvals) {
            *nvals = static_cast<spbla_Index>(idx.size());
            g_last_error = "spbla_Vector_ExtractValues: buffer too small";
            return SPBLA_STATUS_OUT_OF_RANGE;
        }
        if (!idx.empty() && indices == nullptr) return SPBLA_STATUS_INVALID_ARGUMENT;
        std::copy(idx.begin(), idx.end(), indices);
        *nvals = static_cast<spbla_Index>(idx.size());
        return SPBLA_STATUS_SUCCESS;
    });
}

spbla_Status spbla_Vector_Size(spbla_Vector vector, spbla_Index* size) {
    return guarded([&]() -> spbla_Status {
        if (auto s = require_init(); s != SPBLA_STATUS_SUCCESS) return s;
        if (vector == nullptr || size == nullptr) return SPBLA_STATUS_INVALID_ARGUMENT;
        *size = vector->data.size();
        return SPBLA_STATUS_SUCCESS;
    });
}

spbla_Status spbla_Vector_Nvals(spbla_Vector vector, spbla_Index* nvals) {
    return guarded([&]() -> spbla_Status {
        if (auto s = require_init(); s != SPBLA_STATUS_SUCCESS) return s;
        if (vector == nullptr || nvals == nullptr) return SPBLA_STATUS_INVALID_ARGUMENT;
        *nvals = static_cast<spbla_Index>(vector->data.nnz());
        return SPBLA_STATUS_SUCCESS;
    });
}

spbla_Status spbla_Vector_EWiseAdd(spbla_Vector result, spbla_Vector a, spbla_Vector b) {
    return guarded([&]() -> spbla_Status {
        if (auto s = require_init(); s != SPBLA_STATUS_SUCCESS) return s;
        if (result == nullptr || a == nullptr || b == nullptr)
            return SPBLA_STATUS_INVALID_ARGUMENT;
        result->data = a->data.ewise_or(b->data);
        return SPBLA_STATUS_SUCCESS;
    });
}

spbla_Status spbla_Vector_EWiseMult(spbla_Vector result, spbla_Vector a, spbla_Vector b) {
    return guarded([&]() -> spbla_Status {
        if (auto s = require_init(); s != SPBLA_STATUS_SUCCESS) return s;
        if (result == nullptr || a == nullptr || b == nullptr)
            return SPBLA_STATUS_INVALID_ARGUMENT;
        result->data = a->data.ewise_and(b->data);
        return SPBLA_STATUS_SUCCESS;
    });
}

spbla_Status spbla_MxV(spbla_Vector result, spbla_Matrix m, spbla_Vector v) {
    return guarded([&]() -> spbla_Status {
        if (auto s = require_init(); s != SPBLA_STATUS_SUCCESS) return s;
        if (result == nullptr || m == nullptr || v == nullptr)
            return SPBLA_STATUS_INVALID_ARGUMENT;
        result->data = spbla::storage::mxv(*g_context, m->data, v->data);
        return SPBLA_STATUS_SUCCESS;
    });
}

spbla_Status spbla_VxM(spbla_Vector result, spbla_Vector v, spbla_Matrix m) {
    return guarded([&]() -> spbla_Status {
        if (auto s = require_init(); s != SPBLA_STATUS_SUCCESS) return s;
        if (result == nullptr || m == nullptr || v == nullptr)
            return SPBLA_STATUS_INVALID_ARGUMENT;
        result->data = spbla::storage::vxm(*g_context, v->data, m->data);
        return SPBLA_STATUS_SUCCESS;
    });
}

spbla_Status spbla_Matrix_ReduceVector(spbla_Vector result, spbla_Matrix m) {
    return guarded([&]() -> spbla_Status {
        if (auto s = require_init(); s != SPBLA_STATUS_SUCCESS) return s;
        if (result == nullptr || m == nullptr) return SPBLA_STATUS_INVALID_ARGUMENT;
        result->data = spbla::storage::reduce_to_column(*g_context, m->data);
        return SPBLA_STATUS_SUCCESS;
    });
}

}  // extern "C"
