//go:build unix && !aix

package mem

import "syscall"

// mmap reserves n bytes of private, anonymous, read-write address space
// that the OS backs page by page on first touch, charging no swap.
func mmap(n uint64) ([]byte, error) {
	return syscall.Mmap(-1, 0, int(n), syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_PRIVATE|syscall.MAP_ANON|syscall.MAP_NORESERVE)
}

func munmap(b []byte) {
	if err := syscall.Munmap(b); err != nil {
		panic(err)
	}
}

// hugePages, set where the OS has the advice, asks for huge pages for b.
var hugePages func(b []byte)
