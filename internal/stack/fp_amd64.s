//go:build amd64 && !purego

#include "textflag.h"

// func framePointer() unsafe.Pointer
TEXT ·framePointer(SB), NOSPLIT|NOFRAME, $0-8
	MOVQ BP, AX
	MOVQ AX, ret+0(FP)
	RET
