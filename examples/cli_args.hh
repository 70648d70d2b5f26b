/**
 * @file
 * Command-line parsing shared by the examples that take numeric
 * arguments.
 */

#ifndef SMASH_EXAMPLES_CLI_ARGS_HH
#define SMASH_EXAMPLES_CLI_ARGS_HH

#include <cstdlib>
#include <iostream>

#include "common/types.hh"

namespace smash::examples
{

/**
 * argv[i] as a positive integer, or @p fallback when it is absent.
 * Prints @p usage and exits(2) on a non-numeric or non-positive
 * value.
 */
inline Index
positiveArg(int argc, char** argv, int i, Index fallback,
            const char* usage)
{
    if (i >= argc)
        return fallback;
    char* end = nullptr;
    const long long v = std::strtoll(argv[i], &end, 10);
    if (end == argv[i] || *end != '\0' || v < 1) {
        std::cerr << argv[0] << ": bad value '" << argv[i] << "'\n"
                  << "usage: " << argv[0] << " " << usage << "\n";
        std::exit(2);
    }
    return static_cast<Index>(v);
}

} // namespace smash::examples

#endif // SMASH_EXAMPLES_CLI_ARGS_HH
