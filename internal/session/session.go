// Package session describes one thin-client session's memory: the
// per-session process sets of §5.1.1 with their private memory
// footprints, the system-idle memory baselines, and server capacity
// accounting ("how many users fit in this much memory", the sizing
// question the paper's introduction poses). The shared server
// (internal/server) builds each session it runs from a Manifest.
package session

import (
	"thinbench/internal/vm"
)

// ProcessSpec is one process in a login manifest with its private,
// per-user memory consumption (shared code pages excluded, as the paper's
// accounting does).
type ProcessSpec struct {
	Name      string
	PrivateKB int
}

// Manifest is the process set of a minimal login.
type Manifest struct {
	OS        string
	Variant   string // "typical" or "light"
	Processes []ProcessSpec
}

// TotalKB reports the per-session compulsory memory load.
func (m Manifest) TotalKB() int {
	total := 0
	for _, p := range m.Processes {
		total += p.PrivateKB
	}
	return total
}

// LinuxManifest is the paper's Linux/X minimal login: 752 KB.
func LinuxManifest() Manifest {
	return Manifest{
		OS:      "Linux/X",
		Variant: "typical",
		Processes: []ProcessSpec{
			{Name: "in.rshd", PrivateKB: 204},
			{Name: "xterm", PrivateKB: 372},
			{Name: "bash", PrivateKB: 176},
		},
	}
}

// TSEManifest is the paper's TSE minimal login with the Explorer shell:
// 3,244 KB.
func TSEManifest() Manifest {
	return Manifest{
		OS:      "NT TSE",
		Variant: "typical",
		Processes: []ProcessSpec{
			{Name: "explorer.exe (shell)", PrivateKB: 1368},
			{Name: "csrss.exe", PrivateKB: 452},
			{Name: "loadwc.exe", PrivateKB: 424},
			{Name: "nddeagnt.exe", PrivateKB: 300},
			{Name: "winlogin.exe", PrivateKB: 700},
		},
	}
}

// TSELightManifest is the paper's lighter TSE login with the DOS prompt
// replacing Explorer: 2,100 KB.
func TSELightManifest() Manifest {
	return Manifest{
		OS:      "NT TSE",
		Variant: "light",
		Processes: []ProcessSpec{
			{Name: "command.com (shell)", PrivateKB: 224},
			{Name: "csrss.exe", PrivateKB: 452},
			{Name: "loadwc.exe", PrivateKB: 424},
			{Name: "nddeagnt.exe", PrivateKB: 300},
			{Name: "winlogin.exe", PrivateKB: 700},
		},
	}
}

// System-idle memory baselines from §5.1.1: memory unavailable to user
// applications with no sessions logged in.
const (
	LinuxSystemIdleKB = 17 * 1024
	TSESystemIdleKB   = 19 * 1024
)

// Login instantiates the manifest's processes in a memory manager and
// makes them resident, returning the created processes. The measured
// resident growth equals the manifest total (rounded up to whole pages),
// which is how the tab2 experiment cross-checks the table against the VM
// substrate.
func Login(m *vm.Manager, man Manifest) []*vm.Process {
	procs := make([]*vm.Process, 0, len(man.Processes))
	for _, spec := range man.Processes {
		p := m.NewProcess(spec.Name, spec.PrivateKB)
		p.Interactive = true
		m.TouchAll(p)
		procs = append(procs, p)
	}
	return procs
}

// Capacity reports how many sessions of the given manifest fit into
// physical memory after the system baseline, before paging begins — the
// memory-bound answer to the paper's server-sizing question.
func Capacity(physicalKB, systemIdleKB int, man Manifest) int {
	free := physicalKB - systemIdleKB
	per := man.TotalKB()
	if per <= 0 || free <= 0 {
		return 0
	}
	return free / per
}
