// The `tabby` command-line tool. Subcommands:
//
//   tabby list                               built-in corpus components/scenes
//   tabby gen <name> --out DIR               write a corpus model as .tjar files
//   tabby analyze JAR... [--store FILE]      link archives, build the CPG, print stats
//                                            (--store: save its frozen frame)
//   tabby find JAR... [--depth N] [--verify] find gadget chains (+ §V-C auto-verify)
//   tabby query (JAR...|--store FILE) QUERY  run a Cypher query over the CPG (or a
//                                            frame analyze --store saved)
//
// analyze/find/query accept --jobs N to fan the pipeline's parallel stages
// (archive decode, controllability analysis, CPG payloads, per-sink search)
// across N worker threads; output is bit-identical at any job count.
//
// analyze/find/query also accept --cache DIR: the incremental analysis
// cache (src/cache). An unchanged classpath warm-starts from a
// whole-classpath CPG snapshot, skipping decode/link/analysis entirely
// while producing the same stats, the same chains and a byte-identical
// --store file. A "cache:" stats line reports the snapshot hit or miss and
// the snapshot key.
//
// Failure handling (docs/ROBUSTNESS.md): the CLI runs the pipeline under
// FailurePolicy::kQuarantine — malformed archives/classes are dropped with a
// "degraded:" report on stderr and analysis continues on what survives.
// --strict restores fail-on-first-error. --deadline D bounds the whole run
// and --phase-budget PHASE=D (load, finder) bounds one phase; both are
// cooperative and flag skipped work as degradation.
//
// Exit-code taxonomy (scriptable; asserted by the CLI tests):
//   0  clean run, complete answer
//   1  fatal error: nothing usable produced (bad cache dir, every archive
//      quarantined, query error, --store write failure, --strict violation)
//   2  usage error (unknown flag/command, malformed --deadline/--phase-budget)
//   3  completed with degradation: quarantined inputs, an expired deadline,
//      or partial sink searches — results are valid for the surviving subset
//
// The entry point is a plain function so the test suite can drive it.
#pragma once

#include <ostream>
#include <string>
#include <vector>

namespace tabby::cli {

/// Runs the CLI. `args` excludes argv[0]. Returns the process exit code.
int run_cli(const std::vector<std::string>& args, std::ostream& out, std::ostream& err);

}  // namespace tabby::cli
