"""Heap object layouts shared by IRGen, the linker, and the runtime.

Every heap object starts with a two-word header (type id, refcount), like a
Swift object's metadata pointer + refcount word.  All payload cells are
8-byte words; offsets below are in bytes.
"""

from __future__ import annotations

# Common header
HEADER_TYPEID = 0
HEADER_RC = 8
HEADER_BYTES = 16

# Class instances: fields follow the header.
OBJ_FIELDS_OFFSET = 16

# Arrays: [typeid, rc, count, capacity, bufptr]; the payload buffer is a
# separate allocation so append can grow without moving the array object.
ARRAY_COUNT = 16
ARRAY_CAPACITY = 24
ARRAY_BUF = 32
ARRAY_OBJECT_BYTES = 40

# Strings: [typeid, rc, count, bufptr]; one character code per word.
STRING_COUNT = 16
STRING_BUF = 24
STRING_OBJECT_BYTES = 32

# Boxes (closure captures): [typeid|kind<<8, rc, content].
BOX_CONTENT = 16
BOX_OBJECT_BYTES = 24

# Closures: [typeid, rc, fnptr, ncaptures, capture0, capture1, ...].
CLOSURE_FN = 16
CLOSURE_NCAPS = 24
CLOSURE_CAPS_OFFSET = 32

#: Element kinds for arrays and boxes.
ELEM_PLAIN = 0
ELEM_REF = 1
ELEM_FLOAT = 2

#: Reserved type ids; sema numbers classes from FIRST_CLASS_TYPE_ID and
#: rejects a program past MAX_CLASS_TYPE_ID.
TYPE_ID_ARRAY = 1
TYPE_ID_STRING = 2
TYPE_ID_CLOSURE = 3
TYPE_ID_BOX = 4
FIRST_CLASS_TYPE_ID = 16

#: A header word is ``type_id | kind << TYPE_ID_BITS``, so a plain-kind
#: header (every class instance) equals its type id.
TYPE_ID_BITS = 16
MAX_CLASS_TYPE_ID = (1 << TYPE_ID_BITS) - 1


def pack_typeid(type_id: int, kind: int = ELEM_PLAIN) -> int:
    return type_id | (kind << TYPE_ID_BITS)


def unpack_typeid(word: int) -> int:
    return word & MAX_CLASS_TYPE_ID


def unpack_kind(word: int) -> int:
    return word >> TYPE_ID_BITS


#: Sentinel refcount for statically allocated (immortal) objects.
IMMORTAL_RC = -1


def class_field_offset(index: int) -> int:
    """Byte offset of stored field *index* in a class instance."""
    return OBJ_FIELDS_OFFSET + 8 * index


def closure_capture_offset(index: int) -> int:
    """Byte offset of capture *index* in a closure object."""
    return CLOSURE_CAPS_OFFSET + 8 * index


def object_size_for_fields(num_fields: int) -> int:
    return HEADER_BYTES + 8 * num_fields
