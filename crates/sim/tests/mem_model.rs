//! Differential oracle for the sparse data memory: every operation on
//! `Memory` must give the result, the error and the resident size that a
//! naive byte map gives. Addresses cluster near 4 KiB page and 4 MiB
//! table-span boundaries, at the top of user space and off alignment,
//! where a paged table and a page-slice copy can go wrong.

use std::collections::{HashMap, HashSet};

use imt_sim::mem::Memory;
use imt_sim::SimError;
use proptest::collection::vec;
use proptest::prelude::*;

const USER_SPACE: u32 = 0x8000_0000;

/// One byte per address, written or not; a page counts as resident once
/// any byte in it was written.
#[derive(Default)]
struct ByteMap {
    bytes: HashMap<u32, u8>,
    pages: HashSet<u32>,
}

impl ByteMap {
    fn check(address: u32, size: u32) -> Result<(), SimError> {
        if !address.is_multiple_of(size) {
            return Err(SimError::UnalignedAccess {
                address,
                alignment: size,
            });
        }
        if u64::from(address) + u64::from(size) > u64::from(USER_SPACE) {
            return Err(SimError::AccessOutOfRange { address });
        }
        Ok(())
    }

    fn byte(&self, address: u32) -> u8 {
        self.bytes.get(&address).copied().unwrap_or(0)
    }

    fn read(&self, address: u32, size: u32) -> Result<u64, SimError> {
        Self::check(address, size)?;
        Ok((0..size).fold(0u64, |value, i| {
            value | u64::from(self.byte(address + i)) << (8 * i)
        }))
    }

    fn write(&mut self, address: u32, size: u32, value: u64) -> Result<(), SimError> {
        Self::check(address, size)?;
        for i in 0..size {
            self.bytes.insert(address + i, (value >> (8 * i)) as u8);
            self.pages.insert((address + i) >> 12);
        }
        Ok(())
    }

    fn write_bytes(&mut self, address: u32, bytes: &[u8]) -> Result<(), SimError> {
        for (i, &b) in bytes.iter().enumerate() {
            self.write(address.wrapping_add(i as u32), 1, u64::from(b))?;
        }
        Ok(())
    }

    fn read_bytes(&self, address: u32, len: usize) -> Result<Vec<u8>, SimError> {
        (0..len)
            .map(|i| {
                self.read(address.wrapping_add(i as u32), 1)
                    .map(|b| b as u8)
            })
            .collect()
    }

    fn read_cstring(&self, address: u32) -> Result<String, SimError> {
        let mut bytes = Vec::new();
        let mut cursor = address;
        loop {
            let b = self.read(cursor, 1)? as u8;
            if b == 0 {
                return Ok(String::from_utf8_lossy(&bytes).into_owned());
            }
            bytes.push(b);
            cursor += 1;
        }
    }

    fn resident_bytes(&self) -> usize {
        self.pages.len() * 4096
    }
}

#[derive(Debug, Clone)]
enum Op {
    Read { address: u32, size: u32 },
    Write { address: u32, size: u32, value: u64 },
    WriteBytes { address: u32, bytes: Vec<u8> },
    ReadBytes { address: u32, len: usize },
    ReadCString { address: u32 },
}

/// Addresses within a few bytes of the places a two-level page table and
/// a page-slice copy treat specially, plus the odd one anywhere.
fn address() -> impl Strategy<Value = u32> {
    const BASES: [u32; 9] = [
        0x1001_0000, // the loader's data segment
        0x1000_1000, // a 4 KiB page boundary
        0x1020_1000, // 2 MiB above a page base, in the same span
        0x1040_0000, // a 4 MiB span boundary
        0x7FC0_0000, // the last span
        0x7FFF_F000, // the last page
        USER_SPACE,  // the top of user space
        0x0000_0000, // the bottom
        0x7FFF_EFFC, // the stack top
    ];
    prop_oneof![
        (0usize..BASES.len(), -48i32..48)
            .prop_map(|(base, offset)| BASES[base].wrapping_add(offset as u32)),
        any::<u32>(),
    ]
}

fn op() -> impl Strategy<Value = Op> {
    let size = (0usize..4).prop_map(|i| [1u32, 2, 4, 8][i]);
    // Short strings of small bytes, so NULs and multi-page runs both occur.
    let bytes = prop_oneof![
        vec(0u8..4, 0..24),
        vec(any::<u8>(), 0..300),
        vec(1u8..=255, 4000..9000),
    ];
    prop_oneof![
        (address(), size.clone()).prop_map(|(address, size)| Op::Read { address, size }),
        (address(), size, any::<u64>()).prop_map(|(address, size, value)| Op::Write {
            address,
            size,
            value
        }),
        (address(), bytes).prop_map(|(address, bytes)| Op::WriteBytes { address, bytes }),
        (address(), 0usize..9000).prop_map(|(address, len)| Op::ReadBytes { address, len }),
        address().prop_map(|address| Op::ReadCString { address }),
    ]
}

fn read(mem: &Memory, address: u32, size: u32) -> Result<u64, SimError> {
    match size {
        1 => mem.read_u8(address).map(u64::from),
        2 => mem.read_u16(address).map(u64::from),
        4 => mem.read_u32(address).map(u64::from),
        _ => mem.read_u64(address),
    }
}

fn write(mem: &mut Memory, address: u32, size: u32, value: u64) -> Result<(), SimError> {
    match size {
        1 => mem.write_u8(address, value as u8),
        2 => mem.write_u16(address, value as u16),
        4 => mem.write_u32(address, value as u32),
        _ => mem.write_u64(address, value),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn memory_matches_a_byte_map_on_every_operation(ops in vec(op(), 1..48)) {
        let mut mem = Memory::new();
        let mut model = ByteMap::default();
        for op in &ops {
            match op {
                Op::Read { address, size } => {
                    let value = model.read(*address, *size);
                    prop_assert_eq!(read(&mem, *address, *size), value, "{:?}", op);
                }
                Op::Write { address, size, value } => {
                    let result = model.write(*address, *size, *value);
                    prop_assert_eq!(write(&mut mem, *address, *size, *value), result, "{:?}", op);
                }
                Op::WriteBytes { address, bytes } => {
                    let result = model.write_bytes(*address, bytes);
                    prop_assert_eq!(mem.write_bytes(*address, bytes), result, "{:?}", op);
                }
                Op::ReadBytes { address, len } => {
                    let bytes = model.read_bytes(*address, *len);
                    prop_assert_eq!(mem.read_bytes(*address, *len), bytes, "{:?}", op);
                }
                Op::ReadCString { address } => {
                    let string = model.read_cstring(*address);
                    prop_assert_eq!(mem.read_cstring(*address), string, "{:?}", op);
                }
            }
            prop_assert_eq!(mem.resident_bytes(), model.resident_bytes(), "after {:?}", op);
        }
        for (&address, &value) in &model.bytes {
            prop_assert_eq!(mem.read_u8(address), Ok(value));
        }
    }
}

#[test]
fn a_copy_across_the_top_of_user_space_writes_what_fits_then_fails() {
    let mut mem = Memory::new();
    let mut model = ByteMap::default();
    let start = USER_SPACE - 5000;
    let bytes: Vec<u8> = (1..=6000u32).map(|i| i as u8 | 1).collect();
    let expected = model.write_bytes(start, &bytes);
    assert_eq!(
        expected,
        Err(SimError::AccessOutOfRange {
            address: USER_SPACE
        })
    );
    assert_eq!(mem.write_bytes(start, &bytes), expected);
    assert_eq!(mem.read_bytes(start, 5000), Ok(bytes[..5000].to_vec()));
    assert_eq!(mem.resident_bytes(), model.resident_bytes());
    assert_eq!(
        mem.read_cstring(start),
        Err(SimError::AccessOutOfRange {
            address: USER_SPACE
        })
    );
}
