package quant

// dequant4AVX2 expands the n/2 packed bytes at src, n a positive multiple
// of 8, into n values at dst: byte i yields table[src[i]&0xF] then
// table[src[i]>>4], as dequantGroups' Go loop does. The caller has
// bounds-checked dst[:n] and src[:n/2].
//
//go:noescape
func dequant4AVX2(dst *float32, src *byte, table *[16]float32, n int)
