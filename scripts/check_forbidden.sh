#!/usr/bin/env bash
# Forbidden-pattern gate (tier-1, invoked from scripts/ci.sh).
#
# Rules, scoped to NON-TEST code: every line except the items gated by a
# `#[cfg(test)]` attribute. A gated item ends where its braces balance (or
# at its `;` when it has no body, like a gated `use`), and scanning
# resumes after it, so production code below a test item is checked too.
#
#   unwrap          .unwrap()            in crates/{tensor,fixedpoint,rt,serve,plan,graph}
#   expect          .expect("...")       in crates/{tensor,fixedpoint,rt,serve,plan,graph}
#   narrowing-cast  `as i32`             in crates/fixedpoint/src/requant.rs
#   float-eq        `== <float literal>` anywhere in crates/*/src
#   unsafe          `unsafe {`           in crates/{tensor,fixedpoint,serve,plan,graph}
#   thread-spawn    thread spawning      anywhere except crates/rt/src
#   raw-atomic      `Atomic*` types      anywhere except crates/rt/src
#
# The last two keep every concurrency primitive inside crates/rt, the one
# crate whose claim/complete protocol the schedule model checker
# exhaustively verifies (TQT-V019/V020) and whose regions the
# happens-before sanitizer instruments (TQT-V022). Code elsewhere that
# needs cross-thread state must use `tqt_rt::sync::{Counter, Flag}` —
# order-independent by construction — or move the logic into crates/rt.
#
# `unsafe` exists for exactly one purpose in this workspace: runtime-
# dispatched SIMD micro-kernels. Every block must sit next to a SAFETY
# comment and carry the tqt:allow annotation restating why the dispatch
# guard makes it sound — anything else is a review escalation.
#
# A hit is allowed only when its line carries an inline annotation naming
# the rule and a justification:
#
#     foo.unwrap() // tqt:allow(unwrap): <why this cannot fail>
#
# `scripts/check_forbidden.sh --self-test` checks the test-item scoping on
# two fixtures instead of scanning the workspace.
#
# Uses ripgrep when available, plain grep otherwise (the gate must run in
# minimal containers).
set -euo pipefail
cd "$(dirname "$0")/.."

if command -v rg >/dev/null 2>&1; then
  match() { rg --no-config -e "$1" || true; }
else
  match() { grep -E "$1" || true; }
fi

fail=0

# Prints `file:line: text` for every line of one file outside its
# `#[cfg(test)]` items. Braces are counted with string and char literals
# and line comments removed; a `;` ends a gated item only before its body
# opens and outside brackets, so `[f32; 3]` in a signature does not.
non_test_lines() {
  # shellcheck disable=SC2016  # the awk program is meant to be literal
  awk '
    {
      line = $0
      if (!skip && line ~ /^[[:space:]]*#\[cfg\(test\)\]/) {
        skip = 1; depth = 0; nest = 0; opened = 0
        sub(/^[[:space:]]*#\[cfg\(test\)\]/, "", line)
      }
      if (!skip) { print FILENAME ":" FNR ": " $0; next }
      gsub(/"([^"\\]|\\.)*"/, "", line)
      gsub(/\047([^\047\\]|\\.)\047/, "", line)
      sub(/\/\/.*/, "", line)
      for (i = 1; i <= length(line); i++) {
        c = substr(line, i, 1)
        if (c == "{") { depth++; opened = 1 }
        else if (c == "}") { depth-- }
        else if (c == "(" || c == "[") { nest++ }
        else if (c == ")" || c == "]") { nest-- }
        else if (c == ";" && !opened && nest == 0) { skip = 0; break }
        if (opened && depth == 0) { skip = 0; break }
      }
    }
  ' "$1"
}

# scan <rule> <pattern> <file...>
scan() {
  local rule="$1" pattern="$2"
  shift 2
  local f hits
  for f in "$@"; do
    hits=$(non_test_lines "$f" \
      | match "$pattern" | grep -Fv "tqt:allow($rule)" || true)
    if [[ -n "$hits" ]]; then
      echo "forbidden pattern [$rule]:"
      echo "$hits" | sed 's/^/  /'
      fail=1
    fi
  done
}

# The gate must flag an unwrap placed below a gated test fn, and must not
# flag one inside a test module.
self_test() {
  local fixture
  fixture="$(mktemp -d)"
  cat > "$fixture/below.rs" <<'RS'
#[cfg(test)]
fn helper(v: [u32; 2]) -> u32 {
    let close = '}';
    let s = "}}";
    v[0] + s.len() as u32 + close as u32
}

pub fn production(x: Option<u32>) -> u32 {
    x.unwrap()
}
RS
  cat > "$fixture/inside.rs" <<'RS'
#[cfg(test)]
use std::fmt::Debug;

pub fn production() -> u32 {
    1
}

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let s = "{";
        assert_eq!(Some(s).unwrap(), "{");
    }
}
RS
  local ok=1
  scan unwrap '\.unwrap\(\)' "$fixture/below.rs" >/dev/null
  if [[ "$fail" -ne 1 ]]; then
    echo "check_forbidden self-test: an unwrap below a #[cfg(test)] fn was not flagged"
    ok=0
  fi
  fail=0
  scan unwrap '\.unwrap\(\)' "$fixture/inside.rs"
  if [[ "$fail" -ne 0 ]]; then
    echo "check_forbidden self-test: an unwrap inside a test module was flagged"
    ok=0
  fi
  rm -rf "$fixture"
  if [[ "$ok" -ne 1 ]]; then
    exit 1
  fi
  echo "check_forbidden self-test: ok"
}

if [[ "${1:-}" == "--self-test" ]]; then
  self_test
  exit 0
fi

panic_scope=$(find crates/tensor/src crates/fixedpoint/src crates/rt/src crates/serve/src crates/plan/src crates/graph/src -name '*.rs' | sort)
unsafe_scope=$(find crates/tensor/src crates/fixedpoint/src crates/serve/src crates/plan/src crates/graph/src -name '*.rs' | sort)
all_src=$(find crates/*/src -name '*.rs' | sort)
non_rt_src=$(find crates/*/src -name '*.rs' -not -path 'crates/rt/src/*' | sort)

# shellcheck disable=SC2086  # word-splitting the file lists is intended
scan unwrap '\.unwrap\(\)' $panic_scope
# shellcheck disable=SC2086
scan expect '\.expect\("' $panic_scope
scan narrowing-cast ' as i32' crates/fixedpoint/src/requant.rs
# shellcheck disable=SC2086
scan unsafe 'unsafe \{' $unsafe_scope
# shellcheck disable=SC2086
scan float-eq '==[[:space:]]*-?[0-9]+\.[0-9]|[0-9]\.[0-9]+(f32|f64)?[[:space:]]*==' $all_src
# shellcheck disable=SC2086
scan thread-spawn 'thread::spawn|thread::Builder' $non_rt_src
# shellcheck disable=SC2086
scan raw-atomic 'Atomic(Usize|U8|U16|U32|U64|Bool|I8|I16|I32|I64|Isize|Ptr)' $non_rt_src

if [[ "$fail" -ne 0 ]]; then
  echo "check_forbidden: FAILED (annotate justified sites with tqt:allow(<rule>): <reason>)"
  exit 1
fi
echo "check_forbidden: clean"
