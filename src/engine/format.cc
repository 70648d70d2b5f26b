#include "engine/format.hh"

#include <array>

#include "common/logging.hh"

namespace smash::eng
{

namespace
{

constexpr std::array<FormatCaps, kNumFormats> kCapsTable = {{
    // name     spmv   spmm   spadd  spgemm parallel scatterY
    {"coo",     true,  false, false, false, true,    true},
    {"csr",     true,  true,  true,  true,  true,    false},
    {"csc",     true,  false, false, true,  true,    true},
    {"bcsr",    true,  true,  false, false, true,    false},
    {"ell",     true,  false, false, false, true,    false},
    {"dia",     true,  false, false, false, true,    false},
    {"dense",   true,  true,  true,  false, true,    false},
    {"smash",   true,  true,  true,  true,  true,    true},
}};

} // namespace

const char*
toString(Format f)
{
    return capabilities(f).name;
}

const FormatCaps&
capabilities(Format f)
{
    const auto i = static_cast<std::size_t>(f);
    SMASH_CHECK(i < kCapsTable.size(), "unknown format tag ", i);
    return kCapsTable[i];
}

} // namespace smash::eng
