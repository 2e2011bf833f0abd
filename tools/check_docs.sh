#!/usr/bin/env bash
# Documentation contract check, run as the docs_check ctest:
#
#   1. every repo-relative path referenced in inline code spans of README.md,
#      EXPERIMENTS.md and docs/*.md exists in the tree;
#   2. every --flag mentioned in inline code spans is defined somewhere in
#      the sources / build scripts (so docs can't advertise removed flags);
#   3. docs/RESULTS.md carries the generated-by marker and was rendered by
#      the current tools/render_results template version;
#   4. every inline `Type::member` (or `Type::member()`) span names a member
#      that still exists: it appears in the body of Type's struct, class or
#      enum declaration, or is spelled `Type::member`, somewhere in the code
#      (so docs can't name removed fields, methods or enumerators);
#   5. every inline `Suite.Name` span (both parts capitalised, as gtest
#      names are) names a TEST, TEST_F or TEST_P in tests/*.cc (so docs
#      can't cite renamed or deleted tests as evidence);
#   6. every inline span that is one identifier, UpperCamelCase with two or
#      more capitals or a k-prefixed enumerator, appears as a whole word in
#      the code or the tests (so docs can't name removed types, functions
#      or enumerators).
#
# Usage: check_docs.sh <repo-root> [render_results-binary]
set -euo pipefail

ROOT=${1:?usage: check_docs.sh <repo-root> [render_results-binary]}
RENDER=${2:-}
cd "$ROOT"

status=0
DOCS=(README.md EXPERIMENTS.md docs/*.md)

# Where rule 4 looks for members.
CODE_DIRS=(src bench tools perfbench examples)

# Prints the body of every struct/class/enum declaration of type $1 in the
# code, from its opening line to the brace that closes it.
type_bodies() {
  grep -rlE --include='*.h' --include='*.cc' --include='*.cpp' \
      "(struct|class|enum)[[:space:]]+$1([^A-Za-z0-9_]|\$)" "${CODE_DIRS[@]}" |
    xargs -r awk -v type="$1" '
      !inside && $0 ~ "^[[:space:]]*(struct|class|enum class|enum)[[:space:]]+" type "([^A-Za-z0-9_;]|$)" &&
          $0 !~ /;[[:space:]]*$/ { inside = 1; depth = 0; opened = 0 }
      inside {
        print
        opens = gsub(/[{]/, "{"); closes = gsub(/[}]/, "}")
        depth += opens - closes
        if (opens > 0) opened = 1
        if (opened && depth <= 0) inside = 0
      }'
}

# Flags owned by external tools (cmake/ctest/git) that the docs may mention
# but our sources never spell out.
EXTERNAL_FLAGS='^--(output-on-failure|build|preset|target|parallel|config|list-presets)$'

for doc in "${DOCS[@]}"; do
  # Inline code spans only; fenced blocks hold full command lines that mix
  # shell syntax with paths and are too free-form to lint.
  spans=$(grep -o '`[^`]*`' "$doc" | tr -d '`' | sort -u || true)

  # 1. Paths: single tokens containing a slash. Build trees (`build/` and
  # the gitignored preset trees `build-*/`), bench outputs and URLs are
  # runtime artifacts, not tracked files.
  while IFS= read -r token; do
    [ -n "$token" ] || continue
    case "$token" in
      http*|build/*|./build/*|build-*/*|./build-*/*|/*|*:*|*BENCH_*) continue ;;
      *' '*|*'='*|*'<'*|*'('*|*'*'*|*'$'*) continue ;;
      */*) ;;
      *) continue ;;
    esac
    # A bare build-target name (`tools/migrate_sim`) counts as existing
    # when its source does.
    if [ ! -e "$token" ] && [ ! -e "$token.cc" ] && [ ! -e "$token.sh" ]; then
      echo "check_docs: $doc references missing path '$token'" >&2
      status=1
    fi
  done <<< "$spans"

  # 2. Flags: --foo or --foo=BAR tokens must appear in the sources.
  while IFS= read -r flag; do
    [ -n "$flag" ] || continue
    if [[ "$flag" =~ $EXTERNAL_FLAGS ]]; then
      continue
    fi
    if ! grep -rqF -- "$flag" tools bench src tests CMakeLists.txt; then
      echo "check_docs: $doc documents unknown flag '$flag'" >&2
      status=1
    fi
  done < <(printf '%s\n' "$spans" | grep -oE '^--[a-z][a-z-]*' | sort -u || true)

  # 4. Members: `Type::member` spans must name a member the code still has.
  while IFS= read -r span; do
    [ -n "$span" ] || continue
    qualified=${span%"()"}
    type=${qualified%%::*}
    member=${qualified#*::}
    if grep -rqF --include='*.h' --include='*.cc' --include='*.cpp' -- "$qualified" \
           "${CODE_DIRS[@]}" ||
       type_bodies "$type" | grep -w -- "$member" >/dev/null; then
      continue
    fi
    lines=$(grep -nF -- "\`$span\`" "$doc" | cut -d: -f1 | paste -sd, -)
    echo "check_docs: $doc:$lines names missing member '$qualified'" >&2
    status=1
  done < <(printf '%s\n' "$spans" |
             grep -E '^[A-Z][A-Za-z0-9_]*::[A-Za-z_][A-Za-z0-9_]*(\(\))?$' || true)

  # 5. Tests: `Suite.Name` spans must name a test that still exists.
  while IFS= read -r span; do
    [ -n "$span" ] || continue
    suite=${span%%.*}
    name=${span#*.}
    if grep -qE "^TEST(_F|_P)?\([[:space:]]*${suite}[[:space:]]*,[[:space:]]*${name}[[:space:]]*\)" \
           tests/*.cc; then
      continue
    fi
    lines=$(grep -nF -- "\`$span\`" "$doc" | cut -d: -f1 | paste -sd, -)
    echo "check_docs: $doc:$lines cites missing test '$span'" >&2
    status=1
  done < <(printf '%s\n' "$spans" | grep -E '^[A-Z][A-Za-z0-9_]*\.[A-Z][A-Za-z0-9_]*$' || true)

  # 6. Identifiers: a span that is one name must still be spelled somewhere.
  while IFS= read -r span; do
    [ -n "$span" ] || continue
    if grep -rqwF -- "$span" "${CODE_DIRS[@]}" tests; then
      continue
    fi
    lines=$(grep -nF -- "\`$span\`" "$doc" | cut -d: -f1 | paste -sd, -)
    echo "check_docs: $doc:$lines names unknown identifier '$span'" >&2
    status=1
  done < <(printf '%s\n' "$spans" |
             grep -E '^([A-Z][A-Za-z0-9]*[A-Z][A-Za-z0-9]*|k[A-Z][A-Za-z0-9]*)$' || true)
done

# 3. RESULTS.md freshness against the render template.
if [ ! -f docs/RESULTS.md ]; then
  echo "check_docs: docs/RESULTS.md is missing (run tools/render_results)" >&2
  status=1
elif ! grep -q 'Generated by tools/render_results' docs/RESULTS.md; then
  echo "check_docs: docs/RESULTS.md lacks the generated-by marker" >&2
  status=1
elif [ -n "$RENDER" ]; then
  want=$("$RENDER" --print-template-version)
  if ! grep -q "template v${want})" docs/RESULTS.md; then
    echo "check_docs: docs/RESULTS.md is stale (expected template v${want});" \
         "regenerate with tools/render_results" >&2
    status=1
  fi
fi

if [ "$status" -eq 0 ]; then
  echo "check_docs: documentation contract ok"
fi
exit "$status"
