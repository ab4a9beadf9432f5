//go:build !linux

package main

import "os/exec"

// dieWithParent is a no-op where the kernel offers no parent-death signal;
// the kill Cleanup registered after Start still covers normal test exits.
func dieWithParent(*exec.Cmd) {}
