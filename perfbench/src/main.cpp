/**
 * @file
 * The benchmark binary.
 *
 *   dfx_perfbench --workload <name> --seed <n> --seconds <s>
 *                 [--trace <0|1>] [--trace-dir <dir>]
 *   dfx_perfbench --reference-digests
 *
 * Prints one JSON object per run on its last stdout line. Exits 1 when
 * a correctness check fails (the numbers are then not to be used) and
 * 2 on bad arguments. `perfbench/run.py` builds this binary and wraps
 * it in the benchmark's reporting contract.
 */
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "report.hpp"

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: dfx_perfbench --workload "
                 "<decode-fn|serve-345m-paged|fleet-1.5b-cal> --seed <n> "
                 "--seconds <s> [--trace <0|1>] [--trace-dir <dir>]\n"
                 "       dfx_perfbench --reference-digests\n");
    return 2;
}

}  // namespace

int
main(int argc, char **argv)
{
    perfbench::Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--reference-digests")
            return perfbench::printReferenceDigests();
        if (i + 1 >= argc)
            return usage();
        const char *v = argv[++i];
        char *end = nullptr;
        if (a == "--workload") {
            opt.workload = v;
        } else if (a == "--seed") {
            opt.seed = std::strtoull(v, &end, 10);
        } else if (a == "--seconds") {
            opt.seconds = std::strtod(v, &end);
        } else if (a == "--trace") {
            opt.trace = std::strcmp(v, "1") == 0;
        } else if (a == "--trace-dir") {
            opt.traceDir = v;
        } else {
            return usage();
        }
        if (end != nullptr && *end != '\0')
            return usage();
    }
    if (!(opt.seconds > 0.0) || (opt.trace && opt.traceDir.empty()))
        return usage();

    perfbench::Report report;
    if (opt.workload == "decode-fn")
        perfbench::runDecodeFn(opt, report);
    else if (opt.workload == "serve-345m-paged")
        perfbench::runServePaged(opt, report);
    else if (opt.workload == "fleet-1.5b-cal")
        perfbench::runFleetCal(opt, report);
    else
        return usage();

    report.print(opt);
    return report.correct() ? 0 : 1;
}
