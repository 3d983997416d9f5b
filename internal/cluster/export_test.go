package cluster

// ExternalUsage returns the external CPU (cores) and memory (MiB) recorded by
// SetExternalUsage, for the index oracle in index_test.go.
func (h *Host) ExternalUsage() (cpuCores, memMB float64) {
	return h.extCPUCores, h.extMemMB
}
