/**
 * @file
 * Trace-file companion of the SMASH_TRACE runtime: validates and
 * summarizes the Chrome trace-event JSON written by instrumented
 * runs (examples/observability_demo writes one).
 *
 *   smash_trace FILE                 per-subsystem event summary
 *   smash_trace --validate FILE      strict JSON + structure check;
 *                                    exit 1 on malformed input or an
 *                                    empty traceEvents array
 *   smash_trace --validate --expect CAT ... FILE
 *                                    additionally require >= 1 event
 *                                    of each named category (CI uses
 *                                    pool pipeline dispatch
 *                                    plan_cache)
 *
 * The validator is the same self-contained parser the unit tests
 * run (obs::validateJson) — no external JSON dependency — so a file
 * this tool accepts also round-trips through python3 -m json.tool
 * and loads in chrome://tracing / Perfetto.
 */

#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/trace.hh"

namespace
{

/** Value of the first "key": "string" occurrence after @p from. */
std::string
stringField(const std::string& line, const char* key)
{
    const std::string needle = std::string("\"") + key + "\": \"";
    const std::size_t at = line.find(needle);
    if (at == std::string::npos)
        return "";
    const std::size_t begin = at + needle.size();
    const std::size_t end = line.find('"', begin);
    if (end == std::string::npos)
        return "";
    return line.substr(begin, end - begin);
}

/** Value of the first numeric "key": N occurrence (0 if absent). */
double
numberField(const std::string& line, const char* key)
{
    const std::string needle = std::string("\"") + key + "\": ";
    const std::size_t at = line.find(needle);
    if (at == std::string::npos)
        return 0;
    return std::strtod(line.c_str() + at + needle.size(), nullptr);
}

struct CatStats
{
    std::size_t events = 0;
    double totalDurUs = 0;
    std::map<std::string, std::size_t> names;
};

int
run(int argc, char** argv)
{
    bool validate = false;
    std::vector<std::string> expected;
    std::string path;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--validate") == 0) {
            validate = true;
        } else if (std::strcmp(argv[i], "--expect") == 0 &&
                   i + 1 < argc) {
            expected.emplace_back(argv[++i]);
        } else if (argv[i][0] == '-') {
            std::cerr << "unknown option " << argv[i] << "\n";
            return 2;
        } else if (path.empty()) {
            path = argv[i];
        } else {
            std::cerr << "one trace file at a time\n";
            return 2;
        }
    }
    if (path.empty()) {
        std::cerr << "usage: smash_trace [--validate]"
                     " [--expect CAT]... FILE\n";
        return 2;
    }

    std::ifstream in(path);
    if (!in) {
        std::cerr << "cannot read " << path << "\n";
        return 1;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string text = buffer.str();

    std::string error;
    if (!smash::obs::validateJson(text, error)) {
        std::cerr << path << ": invalid JSON: " << error << "\n";
        return 1;
    }
    if (text.find("\"traceEvents\"") == std::string::npos) {
        std::cerr << path << ": no traceEvents array\n";
        return 1;
    }

    // The dump writes one event per line, so a line scan recovers
    // the per-category breakdown without a DOM.
    std::map<std::string, CatStats> cats;
    std::size_t total = 0;
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line)) {
        const std::string cat = stringField(line, "cat");
        if (cat.empty())
            continue;
        CatStats& s = cats[cat];
        ++s.events;
        ++total;
        ++s.names[stringField(line, "name")];
        s.totalDurUs += numberField(line, "dur");
    }

    if (validate && total == 0) {
        std::cerr << path << ": traceEvents is empty\n";
        return 1;
    }
    int missing = 0;
    for (const std::string& cat : expected) {
        if (cats.find(cat) == cats.end()) {
            std::cerr << path << ": no \"" << cat << "\" events\n";
            ++missing;
        }
    }
    if (missing > 0)
        return 1;

    if (validate) {
        std::cout << path << ": valid (" << total << " events, "
                  << cats.size() << " subsystems)\n";
        return 0;
    }
    std::cout << path << ": " << total << " events\n";
    for (const auto& [cat, s] : cats) {
        std::cout << "  " << cat << ": " << s.events << " events, "
                  << s.totalDurUs << " us total span time\n";
        for (const auto& [name, n] : s.names)
            std::cout << "    " << name << ": " << n << "\n";
    }
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    return run(argc, argv);
}
