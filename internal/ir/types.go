// Package ir defines a typed, LLVM-flavored intermediate representation:
// functions of basic blocks, loads/stores/GEPs with explicit pointer
// provenance, and a reference interpreter. The lower package emits it in
// Clang-O0 style (every local in a stack slot), which is the program form
// Clou analyzes (§5): memory events, getelementptr address dependencies,
// and an explicit CFG.
package ir

import "fmt"

// Type is an IR type.
type Type interface {
	Size() int // size in bytes
	String() string
}

// IntType is a fixed-width integer.
type IntType struct {
	Bits     int // 8, 16, 32, 64
	Unsigned bool
}

// Size implements Type.
func (t IntType) Size() int { return t.Bits / 8 }

func (t IntType) String() string {
	if t.Unsigned {
		return fmt.Sprintf("u%d", t.Bits)
	}
	return fmt.Sprintf("i%d", t.Bits)
}

// PtrType is a pointer to Elem.
type PtrType struct{ Elem Type }

// Size implements Type: pointers are 8 bytes.
func (t PtrType) Size() int      { return 8 }
func (t PtrType) String() string { return t.Elem.String() + "*" }

// ArrayType is a fixed-size array.
type ArrayType struct {
	Elem Type
	N    int
}

// Size implements Type.
func (t ArrayType) Size() int      { return t.Elem.Size() * t.N }
func (t ArrayType) String() string { return fmt.Sprintf("[%d x %s]", t.N, t.Elem) }

// StructField is one member of a StructType with its byte offset.
type StructField struct {
	Name   string
	Ty     Type
	Offset int
}

// StructType is a record type with naturally-aligned fields.
type StructType struct {
	Name   string
	Fields []StructField
	size   int
}

// NewStruct lays out fields with natural alignment and returns the type.
func NewStruct(name string, fields []StructField) *StructType {
	off := 0
	maxAlign := 1
	for i := range fields {
		a := align(fields[i].Ty)
		if a > maxAlign {
			maxAlign = a
		}
		off = roundUp(off, a)
		fields[i].Offset = off
		off += fields[i].Ty.Size()
	}
	return &StructType{Name: name, Fields: fields, size: roundUp(off, maxAlign)}
}

func align(t Type) int {
	switch t := t.(type) {
	case IntType:
		return t.Size()
	case PtrType:
		return 8
	case ArrayType:
		return align(t.Elem)
	case *StructType:
		a := 1
		for _, f := range t.Fields {
			if fa := align(f.Ty); fa > a {
				a = fa
			}
		}
		return a
	}
	return 1
}

func roundUp(x, a int) int {
	if a == 0 {
		return x
	}
	return (x + a - 1) / a * a
}

// Size implements Type.
func (t *StructType) Size() int      { return t.size }
func (t *StructType) String() string { return "%" + t.Name }

// Field returns the field with the given name.
func (t *StructType) Field(name string) (StructField, bool) {
	for _, f := range t.Fields {
		if f.Name == name {
			return f, true
		}
	}
	return StructField{}, false
}

// VoidType is the absence of a value.
type VoidType struct{}

// Size implements Type.
func (VoidType) Size() int      { return 0 }
func (VoidType) String() string { return "void" }

// Common types.
var (
	I8   = IntType{Bits: 8}
	I32  = IntType{Bits: 32}
	I64  = IntType{Bits: 64}
	U8   = IntType{Bits: 8, Unsigned: true}
	U16  = IntType{Bits: 16, Unsigned: true}
	U32  = IntType{Bits: 32, Unsigned: true}
	U64  = IntType{Bits: 64, Unsigned: true}
	Void = VoidType{}
)

// Ptr returns a pointer type to elem.
func Ptr(elem Type) PtrType { return PtrType{Elem: elem} }

// Elem returns the pointee of a pointer type, or nil.
func Elem(t Type) Type {
	if p, ok := t.(PtrType); ok {
		return p.Elem
	}
	return nil
}

// IsInt reports whether t is an integer type.
func IsInt(t Type) bool { _, ok := t.(IntType); return ok }

// IsPtr reports whether t is a pointer type.
func IsPtr(t Type) bool { _, ok := t.(PtrType); return ok }
