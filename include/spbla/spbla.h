/**
 * @file spbla.h
 * @brief C-compatible API of the SPbLA sparse Boolean linear algebra library.
 *
 * This header mirrors the embedding surface the paper describes: a plain C
 * interface over the C++ core so the library can be consumed from any
 * runtime with a C FFI (the paper ships a Python wrapper over exactly this
 * kind of API via ctypes).
 *
 * Conventions:
 *  - every function returns a status code; SPBLA_STATUS_SUCCESS is 0,
 *  - objects are opaque handles created/destroyed by the library,
 *  - the library must be initialised with spbla_Initialize before any other
 *    call and torn down with spbla_Finalize.
 */
#ifndef SPBLA_SPBLA_H
#define SPBLA_SPBLA_H

#include <stdint.h>

#ifdef __cplusplus
extern "C" {
#endif

/* C++ sees the enums a caller passes in with an int underlying type, so a
 * value outside the enumerators (which C allows) is still a valid C++ value
 * and the library can reject it with SPBLA_STATUS_INVALID_ARGUMENT. */
#ifdef __cplusplus
#define SPBLA_ENUM_INT : int
#else
#define SPBLA_ENUM_INT
#endif

/** Index type of matrix coordinates (rows, columns). */
typedef uint32_t spbla_Index;

/** Status codes returned by every API function. */
typedef enum spbla_Status {
    SPBLA_STATUS_SUCCESS = 0,            /**< operation completed */
    SPBLA_STATUS_INVALID_ARGUMENT = 1,   /**< bad pointer or parameter */
    SPBLA_STATUS_DIMENSION_MISMATCH = 2, /**< operand shapes incompatible */
    SPBLA_STATUS_OUT_OF_RANGE = 3,       /**< index outside matrix bounds */
    SPBLA_STATUS_NOT_INITIALIZED = 4,    /**< library not initialised */
    SPBLA_STATUS_INVALID_STATE = 5,      /**< e.g. finalize with live objects */
    SPBLA_STATUS_ERROR = 6               /**< unclassified failure */
} spbla_Status;

/** Hints passed to spbla_Initialize. */
typedef enum spbla_InitHint SPBLA_ENUM_INT {
    SPBLA_INIT_DEFAULT = 0,       /**< parallel backend (simulated device) */
    SPBLA_INIT_SEQUENTIAL = 1     /**< sequential CPU fallback backend */
} spbla_InitHint;

/** Hints passed to operation entry points. */
typedef enum spbla_OpHint SPBLA_ENUM_INT {
    SPBLA_HINT_NO = 0,          /**< overwrite the result operand */
    SPBLA_HINT_ACCUMULATE = 1   /**< OR the result into the result operand */
} spbla_OpHint;

/** Storage-format hints. Every matrix is stored in CSR, so both values
 *  change nothing. The values 2, 3 and 4 (formerly COO, dense and bit
 *  blocks) are no longer formats and are rejected with
 *  SPBLA_STATUS_INVALID_ARGUMENT. */
typedef enum spbla_FormatHint SPBLA_ENUM_INT {
    SPBLA_FORMAT_AUTO = 0,     /**< the library's choice (CSR) */
    SPBLA_FORMAT_CSR = 1       /**< the CSR (cuBool-style) format */
} spbla_FormatHint;

/** Opaque sparse Boolean matrix handle. */
typedef struct spbla_Matrix_t* spbla_Matrix;

/** Opaque sparse Boolean vector handle (the paper lists vector support as
 *  partial; this API provides creation, fill, read and the ops the
 *  path-querying layer needs). */
typedef struct spbla_Vector_t* spbla_Vector;

/** Initialise the library. Must be the first call. An unknown hint returns
 *  SPBLA_STATUS_INVALID_ARGUMENT and initialises nothing. */
spbla_Status spbla_Initialize(spbla_InitHint hint);

/** Tear the library down. Fails with INVALID_STATE if matrices are live. */
spbla_Status spbla_Finalize(void);

/** True (1) iff the library is initialised. */
int spbla_IsInitialized(void);

/** Human-readable name of a status code. */
const char* spbla_Status_Name(spbla_Status status);

/** Message of the most recent error on this thread ("" if none). */
const char* spbla_GetLastError(void);

/** Library version as major*10000 + minor*100 + patch. */
uint32_t spbla_GetVersion(void);

/** Number of live matrix handles (diagnostic). */
uint64_t spbla_GetLiveObjects(void);

/* ------------------------------ profiling ------------------------------
 * The library can be built with SPBLA_PROFILE=off|counters|trace. At "off"
 * (the default release configuration) all span instrumentation is compiled
 * out and these calls are accepted but have no observable effect. At
 * "counters" or "trace" they move the runtime level within what was
 * compiled in. Profiling records spans only; every count lives in the
 * telemetry registry below, which profiling builds extend with kernel-work
 * tallies (hash probes, SpGEMM bins, cached rows). Setting the
 * environment variable SPBLA_TRACE=<path> before the first library call is
 * equivalent to enabling level 2 and dumping a trace to <path> at process
 * exit. */

/** Set the runtime profiling level: 0 = off, 1 = span aggregates (calls and
 *  time per span, plus the kernel-work tallies), 2 = those plus the
 *  Chrome-trace event ring. Levels above what the library was compiled with
 *  record nothing for the compiled-out macro sites. May be called before
 *  spbla_Initialize. */
spbla_Status spbla_ProfEnable(int level);

/** Write the spans recorded so far as Chrome trace-event JSON (loadable in
 *  chrome://tracing or Perfetto) to the file at `path`. The file also embeds
 *  a telemetry snapshot under "spbla_metrics": the same counters, under the
 *  same dotted names, that spbla_MetricsDump writes. Call at a quiescent
 *  point (no operation in flight). May be called before spbla_Initialize. */
spbla_Status spbla_ProfDump(const char* path);

/* ------------------------------ telemetry ------------------------------
 * Unlike profiling, the telemetry layer is always compiled in and always
 * on: lock-free counters, gauges and log2-bucketed latency histograms
 * updated by every operation (measured overhead <2% on the SpGEMM ladder).
 * Setting the environment variable SPBLA_METRICS=<path> before the first
 * library call dumps JSON to <path> and Prometheus text to <path>.prom at
 * process exit, and arms the crash flight recorder's dump at
 * <path>.flight. */

/** Serialisation format for spbla_MetricsDump. */
typedef enum spbla_MetricsFormat SPBLA_ENUM_INT {
    SPBLA_METRICS_JSON = 0,      /**< JSON document (schema spbla.metrics.v1) */
    SPBLA_METRICS_PROMETHEUS = 1 /**< Prometheus text exposition format */
} spbla_MetricsFormat;

/** Snapshot every telemetry instrument and write it to the file at `path`.
 *  May be called at any time, including before spbla_Initialize and
 *  concurrently with running operations. */
spbla_Status spbla_MetricsDump(const char* path, spbla_MetricsFormat format);

/** Zero all counters and histograms. Level gauges (live bytes, pool depth)
 *  keep their current values; peak gauges re-baseline to the current level. */
spbla_Status spbla_MetricsReset(void);

/* --------------------------- storage engine ----------------------------
 * Every matrix is stored in CSR, the cuBool format. The format-hint calls
 * remain for source compatibility and change nothing. */

/** Accepts SPBLA_FORMAT_AUTO and SPBLA_FORMAT_CSR, which change nothing.
 *  May be called any time. Any other value (2, 3 and 4 included) returns
 *  SPBLA_STATUS_INVALID_ARGUMENT. */
spbla_Status spbla_SetFormatHint(spbla_FormatHint hint);

/** Accepts SPBLA_FORMAT_CSR and leaves the matrix and its content version
 *  unchanged. SPBLA_FORMAT_AUTO, and any value that names no format (2, 3
 *  and 4 included), returns SPBLA_STATUS_INVALID_ARGUMENT. */
spbla_Status spbla_Matrix_SetFormatHint(spbla_Matrix matrix, spbla_FormatHint hint);

/* -------------------------------- matrix ------------------------------- */

/** Create an empty nrows x ncols matrix. */
spbla_Status spbla_Matrix_New(spbla_Matrix* matrix, spbla_Index nrows, spbla_Index ncols);

/** Destroy a matrix and null the handle. */
spbla_Status spbla_Matrix_Free(spbla_Matrix* matrix);

/** Fill with nvals (rows[k], cols[k]) pairs; duplicates are merged.
 *  With SPBLA_HINT_ACCUMULATE the pairs are OR-ed into existing content.
 *  An unknown hint returns SPBLA_STATUS_INVALID_ARGUMENT and leaves the
 *  matrix unchanged. */
spbla_Status spbla_Matrix_Build(spbla_Matrix matrix, const spbla_Index* rows,
                                const spbla_Index* cols, spbla_Index nvals,
                                spbla_OpHint hint);

/** Read all true cells. On input *nvals is the buffer capacity; on output
 *  the number written. Fails with OUT_OF_RANGE if the capacity is short. */
spbla_Status spbla_Matrix_ExtractPairs(spbla_Matrix matrix, spbla_Index* rows,
                                       spbla_Index* cols, spbla_Index* nvals);

spbla_Status spbla_Matrix_Nrows(spbla_Matrix matrix, spbla_Index* nrows);
spbla_Status spbla_Matrix_Ncols(spbla_Matrix matrix, spbla_Index* ncols);
spbla_Status spbla_Matrix_Nvals(spbla_Matrix matrix, spbla_Index* nvals);

/** duplicate = an independent copy of matrix. */
spbla_Status spbla_Matrix_Duplicate(spbla_Matrix matrix, spbla_Matrix* duplicate);

/* ------------------------------ operations -----------------------------
 * Operand shapes are validated; the result handle is overwritten and takes
 * the operation's natural shape (with SPBLA_HINT_ACCUMULATE the result
 * additionally participates as an accumulator, so its shape must match). */

/** result (+)= a x b over the Boolean semiring.
 *  SPBLA_HINT_ACCUMULATE gives the paper's fused C += M x N. An unknown
 *  hint returns SPBLA_STATUS_INVALID_ARGUMENT and leaves result unchanged. */
spbla_Status spbla_MxM(spbla_Matrix result, spbla_Matrix a, spbla_Matrix b,
                       spbla_OpHint hint);

/** result = a | b (element-wise addition M += N when result aliases a). */
spbla_Status spbla_Matrix_EWiseAdd(spbla_Matrix result, spbla_Matrix a, spbla_Matrix b);

/** result = a & b (element-wise multiplication over the Boolean semiring). */
spbla_Status spbla_Matrix_EWiseMult(spbla_Matrix result, spbla_Matrix a, spbla_Matrix b);

/** result = a (x) b (Kronecker product). */
spbla_Status spbla_Kronecker(spbla_Matrix result, spbla_Matrix a, spbla_Matrix b);

/** result = a^T. */
spbla_Status spbla_Matrix_Transpose(spbla_Matrix result, spbla_Matrix a);

/** result = a[row0 .. row0+m, col0 .. col0+n] (shapes must match result). */
spbla_Status spbla_Matrix_ExtractSubMatrix(spbla_Matrix result, spbla_Matrix a,
                                           spbla_Index row0, spbla_Index col0,
                                           spbla_Index m, spbla_Index n);

/** result = reduceToColumn(a): an a.nrows x 1 matrix marking non-empty rows. */
spbla_Status spbla_Matrix_Reduce(spbla_Matrix result, spbla_Matrix a);

/* ----------------------------- incremental -----------------------------
 * Streaming updates: apply an insert/delete batch to a matrix in place, or
 * maintain a transitive closure under such a batch at cost proportional to
 * the change instead of the graph. */

/** matrix := (matrix \ dels) | adds — delete-then-insert, so a cell named
 *  by both lists ends up present. The two coordinate lists describe cells
 *  of matrix's own shape; a no-op batch (both empty) leaves the content
 *  stamp untouched, any other batch re-stamps the handle. */
spbla_Status spbla_MatrixApplyDelta(spbla_Matrix matrix, const spbla_Index* add_rows,
                                    const spbla_Index* add_cols, spbla_Index n_add,
                                    const spbla_Index* del_rows,
                                    const spbla_Index* del_cols, spbla_Index n_del);

/** Incrementally maintain closure = transitive closure of adj under one
 *  insert/delete batch. The batch is applied to adj in place; closure must
 *  hold the transitive closure of adj's pre-batch cells (pass an empty
 *  matrix to (re)compute it from scratch) and is updated semi-naively —
 *  only the change's frontier is multiplied against the base, and a delete
 *  re-derives only the closure pairs whose paths used a deleted edge.
 *  adj must be square and closure of the same shape, otherwise
 *  SPBLA_STATUS_DIMENSION_MISMATCH. The call is atomic: on any error
 *  neither adj nor closure changes (same cells, same content stamp). */
spbla_Status spbla_ClosureIncremental(spbla_Matrix closure, spbla_Matrix adj,
                                      const spbla_Index* add_rows,
                                      const spbla_Index* add_cols, spbla_Index n_add,
                                      const spbla_Index* del_rows,
                                      const spbla_Index* del_cols, spbla_Index n_del);

/* -------------------------------- vector ------------------------------- */

/** Create an empty Boolean vector of the given size. */
spbla_Status spbla_Vector_New(spbla_Vector* vector, spbla_Index size);

/** Destroy a vector and null the handle. */
spbla_Status spbla_Vector_Free(spbla_Vector* vector);

/** Fill with nvals indices; duplicates merge. */
spbla_Status spbla_Vector_Build(spbla_Vector vector, const spbla_Index* indices,
                                spbla_Index nvals);

/** Read all set indices; *nvals carries capacity in, count out. */
spbla_Status spbla_Vector_ExtractValues(spbla_Vector vector, spbla_Index* indices,
                                        spbla_Index* nvals);

spbla_Status spbla_Vector_Size(spbla_Vector vector, spbla_Index* size);
spbla_Status spbla_Vector_Nvals(spbla_Vector vector, spbla_Index* nvals);

/** result = a | b. */
spbla_Status spbla_Vector_EWiseAdd(spbla_Vector result, spbla_Vector a, spbla_Vector b);

/** result = a & b. */
spbla_Status spbla_Vector_EWiseMult(spbla_Vector result, spbla_Vector a, spbla_Vector b);

/** result = m x v (the frontier pull). */
spbla_Status spbla_MxV(spbla_Vector result, spbla_Matrix m, spbla_Vector v);

/** result = v x m (the frontier push). */
spbla_Status spbla_VxM(spbla_Vector result, spbla_Vector v, spbla_Matrix m);

/** result = reduceToColumn(m) as a vector of non-empty rows. */
spbla_Status spbla_Matrix_ReduceVector(spbla_Vector result, spbla_Matrix m);

#undef SPBLA_ENUM_INT

#ifdef __cplusplus
}
#endif

#endif /* SPBLA_SPBLA_H */
