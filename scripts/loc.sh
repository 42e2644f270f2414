#!/bin/sh
# Prints the net non-test line count ROADMAP.md's standing practice asks
# every refactor PR to report: the checkout's *.go files (tracked, or new and
# not ignored), excluding *_test.go and the bench/ module.
set -eu
cd "$(git rev-parse --show-toplevel)"
git ls-files -z -co --exclude-standard -- '*.go' ':!*_test.go' ':!bench/' | xargs -0 cat | wc -l
