#!/usr/bin/env bash
# Hermetic CI entry point, driven by .github/workflows/ci.yml and usable
# verbatim on any machine. Philosophy:
#
#  * NOTHING is installed implicitly. The only command that touches the
#    package manager is the explicit `setup` mode (run as a dedicated,
#    visible CI step); every other mode verifies its dependencies up front
#    and fails loudly with the exact names of what is missing.
#  * One mode per CI matrix cell: `release`, `asan`, `tsan` each configure
#    the matching CMake preset with the -Werror gate enabled, build, and
#    run ctest with --output-on-failure and the per-test TIMEOUTs/LABELS
#    registered in CMakeLists.txt. The high-thread `stress` tier, the
#    txbatch `batch` tier, and the `durable` tier run in all three cells,
#    so backoff under 16/32-thread oversubscription, the global clock,
#    the merge layer's compensation path, and the durable commit leg are
#    raced under both sanitizers on every push. The tsan preset excludes
#    only bench-smoke and the fork-based
#    `crash` recovery harness (TSan and fork() don't mix); the crash tests
#    still run under release AND ASan.
#  * `release` additionally writes the static-analysis elision table and
#    the (advisory) bench-gate report into ci-artifacts/ for the workflow
#    to upload.
#  * `codegen-drift` is the analysis→codegen staleness gate: it builds
#    txir_sitegen, writes a freshly regenerated header and the kernel
#    precision report into ci-artifacts/ (so a red run uploads exactly
#    what the fix commit should contain), then runs
#    `txir_sitegen --check generated/site_verdicts.hpp` and fails on any
#    drift between the committed Site verdict table and the analysis.
#  * Every build mode uses ccache transparently when it is installed
#    (setup installs it on CI; the workflow persists ~/.ccache across
#    runs via actions/cache) and is unchanged when it is not.
#  * `format` runs the clang-format gate for real — the CI image installs
#    a pinned clang-format in `setup`, so the check cannot self-skip the
#    way it does on dev boxes without the tool.
#
# scripts/check.sh remains the local mirror (it runs the same suites but
# tolerates missing optional tools with loud SKIP banners).
#
# Usage: scripts/ci.sh {setup|release|asan|tsan|format|codegen-drift}
set -euo pipefail
cd "$(dirname "$0")/.."

# Pinned clang-format major version: bump deliberately, reformat in the
# same commit. (Format output differs across majors.)
CLANG_FORMAT_VERSION="${CLANG_FORMAT_VERSION:-15}"

jobs=$(nproc 2>/dev/null || echo 4)

die() {
  echo "!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!" >&2
  echo "!!! ci.sh: $*" >&2
  echo "!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!" >&2
  exit 1
}

require() {
  local missing=()
  for tool in "$@"; do
    command -v "$tool" > /dev/null 2>&1 || missing+=("$tool")
  done
  if [ "${#missing[@]}" -ne 0 ]; then
    die "missing required tools: ${missing[*]} — run 'scripts/ci.sh setup' (CI image) or install them explicitly"
  fi
}

# ccache is optional everywhere: CI installs it in `setup` and the
# workflow caches ~/.ccache keyed on preset x build-config lockfiles, so
# warm runs skip most compiles; dev boxes without it build exactly as
# before.
launcher_flags() {
  if command -v ccache > /dev/null 2>&1; then
    echo "-DCMAKE_CXX_COMPILER_LAUNCHER=ccache"
  fi
}

run_preset() {
  local preset="$1"
  require cmake ctest c++
  echo "== ci.sh: configure preset '$preset' (CSTM_WERROR=ON) =="
  # shellcheck disable=SC2046 — launcher_flags is empty or one flag
  cmake --preset "$preset" -DCSTM_WERROR=ON $(launcher_flags)
  echo "== ci.sh: build preset '$preset' =="
  cmake --build --preset "$preset" -j "$jobs"
  if command -v ccache > /dev/null 2>&1; then
    echo "== ci.sh: ccache stats =="
    ccache -s | sed -n '1,6p'
  fi
  echo "== ci.sh: ctest preset '$preset' (labels: unit, torture, stress, batch, durable, crash, bench-smoke) =="
  ctest --preset "$preset" --output-on-failure
}

mode="${1:-}"
case "$mode" in
  setup)
    # The ONLY mode allowed to install anything, and it does so explicitly
    # and pinned — a dedicated CI step, never a side effect of a build.
    require apt-get
    echo "== ci.sh setup: installing pinned toolchain deps =="
    export DEBIAN_FRONTEND=noninteractive
    apt-get update
    apt-get install -y --no-install-recommends \
      cmake g++ make python3 ccache libgtest-dev libbenchmark-dev \
      "clang-format-${CLANG_FORMAT_VERSION}"
    # The check-format target looks for plain `clang-format`.
    update-alternatives --install /usr/bin/clang-format clang-format \
      "/usr/bin/clang-format-${CLANG_FORMAT_VERSION}" 100
    echo "== ci.sh setup: done =="
    ;;

  release)
    run_preset release
    echo "== ci.sh: collecting release artifacts =="
    mkdir -p ci-artifacts
    ./build/example_compiler_analysis > ci-artifacts/capture-analysis-report.txt
    if command -v python3 > /dev/null 2>&1; then
      # Advisory on CI hardware (noisy shared runners); check.sh -s is the
      # strict mode for quiet boxes. --report-out writes the report into
      # ci-artifacts/ even if the gate crashes mid-comparison, and a
      # malformed committed BENCH_*.json fails the step even in advisory
      # mode (repo corruption is not scheduler noise).
      python3 scripts/bench_gate.py \
        --report-out ci-artifacts/bench-gate-report.txt
    else
      die "python3 missing for the bench gate — run 'scripts/ci.sh setup'"
    fi
    ;;

  asan|tsan)
    run_preset "$mode"
    ;;

  codegen-drift)
    # The analysis→codegen staleness gate. Artifacts are written BEFORE
    # the check so a red run uploads the regenerated header (= the exact
    # file to commit) and the kernel precision report alongside the diff
    # in the step log.
    require cmake c++
    echo "== ci.sh: codegen-drift: build txir_sitegen =="
    # shellcheck disable=SC2046
    cmake --preset release -DCSTM_WERROR=ON $(launcher_flags) > /dev/null
    cmake --build build --target txir_sitegen -j "$jobs"
    mkdir -p ci-artifacts
    ./build/txir_sitegen --out ci-artifacts/site_verdicts.regenerated.hpp
    ./build/txir_sitegen --report > ci-artifacts/sitegen-kernel-report.txt
    echo "== ci.sh: codegen-drift: check committed generated header =="
    ./build/txir_sitegen --check generated/site_verdicts.hpp
    ;;

  format)
    require cmake clang-format
    found="$(clang-format --version)"
    case "$found" in
      *"version ${CLANG_FORMAT_VERSION}."*) ;;
      *) die "clang-format major mismatch: want ${CLANG_FORMAT_VERSION}, found: ${found}" ;;
    esac
    echo "== ci.sh: clang-format gate (${found}) =="
    # No -DCSTM_WERROR here: the flag is irrelevant to formatting and
    # would persist in a developer's local build/ cache.
    cmake --preset release > /dev/null
    cmake --build build --target check-format
    ;;

  *)
    echo "usage: $0 {setup|release|asan|tsan|format|codegen-drift}" >&2
    exit 2
    ;;
esac

echo "== ci.sh $mode: OK =="
