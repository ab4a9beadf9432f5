package main

import (
	"os/exec"
	"syscall"
)

// dieWithParent makes the kernel SIGKILL the child when the test process
// dies, so a panic or -timeout abort cannot leak a server.
func dieWithParent(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
