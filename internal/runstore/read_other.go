//go:build !unix

package runstore

import "os"

// readEntry reads the whole object file at path; buf is unused.
func readEntry(path string, buf []byte) ([]byte, error) {
	return os.ReadFile(path)
}
