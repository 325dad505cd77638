#!/usr/bin/env bash
# Cross-checks failpoint names between src/ and tests/.
#
#   tools/failpoint_sites.sh [source-root]
#
# Sites: every string literal passed to NLIDB_FAILPOINT("...") or
# failpoint::Fire("...") in src/, outside comments.
# Activations: every name a test arms with ScopedFailpoint <var>("...", ...)
# or failpoint::Activate("...", ...) in tests/ (the name literal must sit on
# the line of the call).
#
# Fails when
#   - a test arms a name no site fires: a stale name, such as a deleted
#     site's, lets its test pass without injecting anything;
#   - a literal site in src/ is armed by no test.
#
# Out of scope: sites whose name is built at run time, that is
# io::AtomicFileWriter's "<prefix>/commit" and "<prefix>/before_rename"
# (src/common/file_io.cc). Armed names with either suffix are accepted
# without a literal site, and nothing checks that every prefix is armed.
# A name without a "/" is not a site name (failpoint_test arms "s" only to
# see a malformed spec rejected). The literal sites that tests fire
# themselves ("test/site", ...) count as known names.
set -euo pipefail

root="${1:-$(dirname "$0")/..}"
cd "$root"

site_re='(NLIDB_FAILPOINT|failpoint::Fire)\("[^"]+"\)'
arm_re='(ScopedFailpoint[[:space:]]+[A-Za-z_][A-Za-z0-9_]*|failpoint::Activate)\("[^"]+"'

# Literal names matched by $site_re in the C++ files under $1.
literal_sites() {
  grep -rhE --include='*.h' --include='*.cc' --include='*.inc' "$site_re" "$1" |
    grep -vE '^[[:space:]]*//' |
    grep -oE "$site_re" | sed -E 's/.*\("([^"]+)"\)/\1/' | sort -u || true
}

src_sites=$(literal_sites src)
test_sites=$(literal_sites tests)
armed=$(grep -rhE --include='*.cc' --include='*.h' "$arm_re" tests |
          grep -oE "$arm_re" | sed -E 's/.*\("([^"]+)"$/\1/' | sort -u || true)

if [ -z "$src_sites" ]; then
  echo "failpoint_sites: found no literal site under src/" >&2
  exit 1
fi

status=0
while IFS= read -r name; do
  [ -n "$name" ] || continue
  case "$name" in
    */*) ;;
    *) continue ;;
  esac
  if grep -qxF "$name" <<<"$src_sites" || grep -qxF "$name" <<<"$test_sites"
  then
    continue
  fi
  case "$name" in
    */commit | */before_rename) continue ;;
  esac
  echo "failpoint_sites: tests arm '$name', which no site fires" >&2
  status=1
done <<<"$armed"

while IFS= read -r site; do
  if ! grep -qxF "$site" <<<"$armed"; then
    echo "failpoint_sites: src/ site '$site' is armed by no test" >&2
    status=1
  fi
done <<<"$src_sites"

echo "failpoint_sites: src/ sites:" $src_sites
exit "$status"
