package mem

import "syscall"

func init() {
	hugePages = func(b []byte) { syscall.Madvise(b, syscall.MADV_HUGEPAGE) }
}
