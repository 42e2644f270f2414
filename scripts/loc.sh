#!/bin/sh
# Prints the net non-test line count ROADMAP.md's standing practice asks
# every refactor PR to report: the checkout's *.go files (tracked, or new and
# not ignored), excluding *_test.go and the bench/ module. A tracked file
# already removed from the working tree (rm without git rm, mid-refactor) is
# skipped, not reported as a cat error.
set -eu
cd "$(git rev-parse --show-toplevel)"
git ls-files -z -co --exclude-standard -- '*.go' ':!*_test.go' ':!bench/' |
	xargs -0 sh -c 'for f; do if [ -f "$f" ]; then cat "$f"; fi; done' sh | wc -l
