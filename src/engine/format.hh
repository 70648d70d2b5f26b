/**
 * @file
 * Format identity and capability registry of the execution engine.
 *
 * Every storage scheme the library implements gets one Format tag
 * and one FormatCaps row describing what the dispatch layer may
 * route to it: which operations have native kernels, whether a
 * multi-threaded driver exists, and how the x operand must be
 * padded. Dispatch consults the registry instead of hard-coding
 * per-format knowledge, so adding a format is one enum value, one
 * table row, and the kernels themselves.
 *
 * Ownership/threading contract: the capability table is immutable
 * static storage; every function here is a read and safe from any
 * thread.
 */

#ifndef SMASH_ENGINE_FORMAT_HH
#define SMASH_ENGINE_FORMAT_HH

#include <string>

#include "common/types.hh"

namespace smash::eng
{

/** Storage schemes the engine can hold and dispatch over. */
enum class Format
{
    kCoo,   //!< coordinate triples
    kCsr,   //!< compressed sparse row
    kCsc,   //!< compressed sparse column
    kBcsr,  //!< register-blocked CSR tiles
    kEll,   //!< fixed-width row slabs
    kDia,   //!< stored diagonals
    kDense, //!< uncompressed row-major
    kSmash, //!< hierarchical bitmap + NZA (the paper's encoding)
};

/** Number of Format enumerators (for tables and iteration). */
inline constexpr int kNumFormats = 8;

/** Short lower-case name ("csr", "smash", ...). */
const char* toString(Format f);

/** What the dispatch layer may route to one format. */
struct FormatCaps
{
    const char* name;        //!< same string as toString()
    bool spmv = false;       //!< native SpMV kernel
    bool spmm = false;       //!< native SpMM kernel (as operand A)
    bool spadd = false;      //!< native SpAdd kernel
    bool spgemm = false;     //!< native SpGEMM kernel (as operand A)
    bool parallelSpmv = false; //!< multi-threaded SpMV driver
    bool scatterY = false;   //!< SpMV scatters into y (needs
                             //!< per-thread accumulators in parallel)
};

/** Capability row for @p f (static storage, never fails). */
const FormatCaps& capabilities(Format f);

} // namespace smash::eng

#endif // SMASH_ENGINE_FORMAT_HH
