#!/usr/bin/env bash
# CTest smoke for the wwt_indexer CLI (labels: unit). Drives the real
# binary end to end: build a tiny corpus, revalidate it without --force,
# --inspect both artifact kinds, rebuild with --force, write a sharded
# set, rebuild a snapshot or shard whose payload was corrupted after
# the fact, and assert the error contract — an unwritable output path exits
# non-zero with a one-line "wwt_indexer: ..." diagnostic, never a crash.
set -u

INDEXER="${1:?usage: wwt_indexer_cli_test.sh /path/to/wwt_indexer}"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
fail() { echo "wwt_indexer_cli_test: FAIL: $1"; exit 1; }

# Flips one byte of the STOR record blob in place: 10 bytes before the
# INDX section tag, i.e. inside the last stored record. The file keeps
# its size and loads zero-copy; only the payload checksum can tell.
corrupt_store() {
  local at byte
  at=$(grep -obUa INDX "$1" | head -1 | cut -d: -f1)
  [ -n "$at" ] || fail "no INDX section in $1"
  at=$((at - 10))
  byte=$(od -An -tu1 -j "$at" -N1 "$1" | tr -d ' ')
  printf "$(printf '\\%03o' $((byte ^ 0x5a)))" |
    dd of="$1" bs=1 seek="$at" conv=notrunc status=none
}

# The smallest corpus the generator produces quickly; all invocations
# share the parameters so revalidation is exercised for real.
ARGS=(--scale 0.05 --seed 5 --noise-pages 10)

# Build.
"$INDEXER" --out "$TMP/tiny.wwtsnap" "${ARGS[@]}" >"$TMP/build.txt" \
  || fail "initial build exited non-zero"
grep -q "built snapshot" "$TMP/build.txt" || fail "no 'built snapshot' line"
[ -s "$TMP/tiny.wwtsnap" ] || fail "no artifact written"

# Re-run without --force: the existing artifact is kept (the CI cache
# path).
"$INDEXER" --out "$TMP/tiny.wwtsnap" "${ARGS[@]}" >"$TMP/revalidate.txt" \
  || fail "revalidation exited non-zero"
grep -q "validated existing" "$TMP/revalidate.txt" \
  || fail "matching artifact was rebuilt instead of validated"

# --inspect round-trips the header and META facts.
"$INDEXER" --inspect "$TMP/tiny.wwtsnap" >"$TMP/inspect.txt" \
  || fail "--inspect exited non-zero"
grep -q "content hash" "$TMP/inspect.txt" || fail "inspect shows no hash"
grep -q "tables" "$TMP/inspect.txt" || fail "inspect shows no table count"

# --inspect --format json: one machine-readable object with the version,
# content hash and the per-section byte sizes.
"$INDEXER" --inspect "$TMP/tiny.wwtsnap" --format json \
  >"$TMP/inspect.json" || fail "--inspect --format json exited non-zero"
grep -q '"format_version"' "$TMP/inspect.json" \
  || fail "json inspect shows no format_version"
grep -q '"content_hash"' "$TMP/inspect.json" \
  || fail "json inspect shows no content_hash"
grep -q '"sections"' "$TMP/inspect.json" \
  || fail "json inspect shows no sections"
grep -q '"tag": "INDX"' "$TMP/inspect.json" \
  || fail "json inspect lists no INDX section"
"$INDEXER" --inspect "$TMP/tiny.wwtsnap" --format bogus \
  >/dev/null 2>"$TMP/fmt_err.txt" && fail "--format bogus did not fail"
[ "$(grep -c '^wwt_indexer: ' "$TMP/fmt_err.txt")" -eq 1 ] \
  || fail "expected one 'wwt_indexer: ...' line for --format bogus"

# A flipped payload byte: --inspect refuses the file with one
# diagnostic, and a re-run rebuilds it instead of validating it.
cp "$TMP/tiny.wwtsnap" "$TMP/clean.wwtsnap"
corrupt_store "$TMP/tiny.wwtsnap"
cmp -s "$TMP/tiny.wwtsnap" "$TMP/clean.wwtsnap" \
  && fail "corrupt_store changed nothing"
"$INDEXER" --inspect "$TMP/tiny.wwtsnap" >/dev/null 2>"$TMP/bad_inspect.txt" \
  && fail "--inspect accepted a corrupted payload"
grep -q "checksum" "$TMP/bad_inspect.txt" \
  || fail "--inspect on a corrupted payload does not name the checksum"
"$INDEXER" --out "$TMP/tiny.wwtsnap" "${ARGS[@]}" >"$TMP/repair.txt" \
  || fail "rebuild of a corrupted snapshot exited non-zero"
grep -q "built snapshot" "$TMP/repair.txt" \
  || fail "corrupted snapshot was validated instead of rebuilt"
cmp -s "$TMP/tiny.wwtsnap" "$TMP/clean.wwtsnap" \
  || fail "rebuilt snapshot differs from the original build"

# --force rebuilds even though the artifact matches.
"$INDEXER" --out "$TMP/tiny.wwtsnap" "${ARGS[@]}" --force \
  >"$TMP/force.txt" || fail "--force exited non-zero"
grep -q "built snapshot" "$TMP/force.txt" || fail "--force did not rebuild"

# Sharded set: 3 shard files + a manifest, inspectable.
"$INDEXER" --out "$TMP/tiny.wwtset" "${ARGS[@]}" --shards 3 \
  >"$TMP/shards.txt" || fail "sharded build exited non-zero"
grep -Eq "shards +3" "$TMP/shards.txt" || fail "sharded build not 3-way"
for s in 0 1 2; do
  [ -s "$TMP/tiny.shard-$s-of-3.wwtsnap" ] || fail "shard $s missing"
done
"$INDEXER" --inspect "$TMP/tiny.wwtset" >"$TMP/setinspect.txt" \
  || fail "--inspect on manifest exited non-zero"
grep -q "corpus set" "$TMP/setinspect.txt" || fail "manifest inspect wrong"
"$INDEXER" --inspect "$TMP/tiny.wwtset" --format json \
  >"$TMP/setinspect.json" || fail "json manifest inspect exited non-zero"
grep -q '"kind": "set"' "$TMP/setinspect.json" \
  || fail "json manifest inspect has wrong kind"
grep -q '"shards"' "$TMP/setinspect.json" \
  || fail "json manifest inspect lists no shards"
grep -q '"first_table_id"' "$TMP/setinspect.json" \
  || fail "json manifest inspect lists no shard id ranges"

# Revalidating the set keeps it; a flipped payload byte in one shard
# makes the next run rebuild the whole set.
"$INDEXER" --out "$TMP/tiny.wwtset" "${ARGS[@]}" --shards 3 \
  >"$TMP/shards_again.txt" || fail "sharded revalidation exited non-zero"
grep -q "validated existing sharded set" "$TMP/shards_again.txt" \
  || fail "matching sharded set was rebuilt instead of validated"
corrupt_store "$TMP/tiny.shard-1-of-3.wwtsnap"
"$INDEXER" --out "$TMP/tiny.wwtset" "${ARGS[@]}" --shards 3 \
  >"$TMP/shards_repair.txt" || fail "sharded rebuild exited non-zero"
grep -q "built sharded set" "$TMP/shards_repair.txt" \
  || fail "set with a corrupted shard was validated instead of rebuilt"
"$INDEXER" --inspect "$TMP/tiny.shard-1-of-3.wwtsnap" >/dev/null \
  || fail "rebuilt shard does not pass --inspect"

# Unwritable output path (the parent "directory" is a regular file, so
# this fails for root too): non-zero exit + a one-line diagnostic.
: >"$TMP/blocker"
if "$INDEXER" --out "$TMP/blocker/sub/x.wwtsnap" "${ARGS[@]}" \
    >/dev/null 2>"$TMP/err.txt"; then
  fail "unwritable output path did not fail"
fi
[ "$(grep -c '^wwt_indexer: ' "$TMP/err.txt")" -eq 1 ] \
  || fail "expected exactly one 'wwt_indexer: ...' error line"
if "$INDEXER" --out "$TMP/blocker/sub/x.wwtset" "${ARGS[@]}" --shards 2 \
    >/dev/null 2>"$TMP/err2.txt"; then
  fail "unwritable sharded output path did not fail"
fi
[ "$(grep -c '^wwt_indexer: ' "$TMP/err2.txt")" -eq 1 ] \
  || fail "expected exactly one 'wwt_indexer: ...' error line (sharded)"

echo "wwt_indexer_cli_test: PASS"
