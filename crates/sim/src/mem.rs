//! Sparse paged data memory.
//!
//! User address space is the low 2 GiB (`0x0000_0000..0x8000_0000`), split
//! into 4 KiB pages allocated on first touch. Reads from untouched pages
//! return zero, matching how a loader zero-fills BSS. Instruction text is
//! *not* stored here — the simulated core is Harvard-style, fetching from
//! the decoded program image ([`crate::cpu::Cpu`]), which mirrors the
//! paper's separation of the instruction memory path from the data path.
//!
//! The page table has two levels, so a fresh memory costs what the
//! program touches rather than what the address space could hold: 512
//! inline slots, one per 4 MiB span, each pointing to a 1024-slot table of
//! pages that is allocated on the first write into its span. A kernel
//! touching its data segment and its stack allocates two such tables.

use crate::error::SimError;

const PAGE_BITS: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_BITS;
/// log2 of the span one second-level table covers (4 MiB).
const CHUNK_BITS: u32 = 22;
const CHUNK_PAGES: usize = 1 << (CHUNK_BITS - PAGE_BITS);
const USER_SPACE: u32 = 0x8000_0000;
const CHUNKS: usize = (USER_SPACE >> CHUNK_BITS) as usize;

type Page = [u8; PAGE_SIZE];
type Chunk = [Option<Box<Page>>; CHUNK_PAGES];

/// Byte-addressable, little-endian, zero-initialised sparse memory.
///
/// ```
/// use imt_sim::mem::Memory;
///
/// # fn main() -> Result<(), imt_sim::SimError> {
/// let mut mem = Memory::new();
/// mem.write_u32(0x1001_0000, 0xDEAD_BEEF)?;
/// assert_eq!(mem.read_u32(0x1001_0000)?, 0xDEAD_BEEF);
/// assert_eq!(mem.read_u8(0x1001_0000)?, 0xEF); // little-endian
/// assert_eq!(mem.read_u32(0x2000_0000)?, 0);   // untouched page reads zero
/// # Ok(())
/// # }
/// ```
pub struct Memory {
    chunks: [Option<Box<Chunk>>; CHUNKS],
    /// Bytes in pages actually allocated (for diagnostics).
    resident: usize,
}

impl std::fmt::Debug for Memory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Memory")
            .field("resident_bytes", &self.resident)
            .finish()
    }
}

impl Default for Memory {
    fn default() -> Self {
        Self::new()
    }
}

impl Memory {
    /// Creates an empty memory.
    pub fn new() -> Self {
        Memory {
            chunks: [const { None }; CHUNKS],
            resident: 0,
        }
    }

    /// Bytes of currently allocated backing store.
    pub fn resident_bytes(&self) -> usize {
        self.resident
    }

    fn check(address: u32, size: u32) -> Result<(), SimError> {
        if !address.is_multiple_of(size) {
            return Err(SimError::UnalignedAccess {
                address,
                alignment: size,
            });
        }
        if address >= USER_SPACE || USER_SPACE - address < size {
            return Err(SimError::AccessOutOfRange { address });
        }
        Ok(())
    }

    // Both lookups take a checked address (below `USER_SPACE`), so the
    // masks change no index; they only let the compiler drop the bounds
    // checks.

    #[inline]
    fn page(&self, address: u32) -> Option<&Page> {
        let chunk = self.chunks[(address >> CHUNK_BITS) as usize & (CHUNKS - 1)].as_deref()?;
        chunk[(address >> PAGE_BITS) as usize & (CHUNK_PAGES - 1)].as_deref()
    }

    #[inline]
    fn page_mut(&mut self, address: u32) -> &mut Page {
        let chunk = self.chunks[(address >> CHUNK_BITS) as usize & (CHUNKS - 1)]
            .get_or_insert_with(|| Box::new([const { None }; CHUNK_PAGES]));
        chunk[(address >> PAGE_BITS) as usize & (CHUNK_PAGES - 1)].get_or_insert_with(|| {
            self.resident += PAGE_SIZE;
            Box::new([0u8; PAGE_SIZE])
        })
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::AccessOutOfRange`] above user space.
    pub fn read_u8(&self, address: u32) -> Result<u8, SimError> {
        Self::check(address, 1)?;
        Ok(self
            .page(address)
            .map_or(0, |p| p[(address as usize) & (PAGE_SIZE - 1)]))
    }

    /// Writes one byte.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::AccessOutOfRange`] above user space.
    pub fn write_u8(&mut self, address: u32, value: u8) -> Result<(), SimError> {
        Self::check(address, 1)?;
        self.page_mut(address)[(address as usize) & (PAGE_SIZE - 1)] = value;
        Ok(())
    }

    /// Reads a little-endian halfword.
    ///
    /// # Errors
    ///
    /// [`SimError::UnalignedAccess`] if `address` is odd;
    /// [`SimError::AccessOutOfRange`] above user space.
    pub fn read_u16(&self, address: u32) -> Result<u16, SimError> {
        Self::check(address, 2)?;
        let offset = (address as usize) & (PAGE_SIZE - 1);
        Ok(self
            .page(address)
            .map_or(0, |p| u16::from_le_bytes([p[offset], p[offset + 1]])))
    }

    /// Writes a little-endian halfword.
    ///
    /// # Errors
    ///
    /// As [`Memory::read_u16`].
    pub fn write_u16(&mut self, address: u32, value: u16) -> Result<(), SimError> {
        Self::check(address, 2)?;
        let offset = (address as usize) & (PAGE_SIZE - 1);
        self.page_mut(address)[offset..offset + 2].copy_from_slice(&value.to_le_bytes());
        Ok(())
    }

    /// Reads a little-endian word.
    ///
    /// # Errors
    ///
    /// [`SimError::UnalignedAccess`] unless 4-aligned;
    /// [`SimError::AccessOutOfRange`] above user space.
    pub fn read_u32(&self, address: u32) -> Result<u32, SimError> {
        Self::check(address, 4)?;
        let offset = (address as usize) & (PAGE_SIZE - 1);
        Ok(self.page(address).map_or(0, |p| {
            u32::from_le_bytes([p[offset], p[offset + 1], p[offset + 2], p[offset + 3]])
        }))
    }

    /// Writes a little-endian word.
    ///
    /// # Errors
    ///
    /// As [`Memory::read_u32`].
    pub fn write_u32(&mut self, address: u32, value: u32) -> Result<(), SimError> {
        Self::check(address, 4)?;
        let offset = (address as usize) & (PAGE_SIZE - 1);
        self.page_mut(address)[offset..offset + 4].copy_from_slice(&value.to_le_bytes());
        Ok(())
    }

    /// Reads a little-endian doubleword (used by `ldc1`).
    ///
    /// # Errors
    ///
    /// [`SimError::UnalignedAccess`] unless 8-aligned;
    /// [`SimError::AccessOutOfRange`] above user space.
    pub fn read_u64(&self, address: u32) -> Result<u64, SimError> {
        Self::check(address, 8)?;
        let lo = self.read_u32(address)? as u64;
        let hi = self.read_u32(address + 4)? as u64;
        Ok(hi << 32 | lo)
    }

    /// Writes a little-endian doubleword (used by `sdc1`).
    ///
    /// # Errors
    ///
    /// As [`Memory::read_u64`].
    pub fn write_u64(&mut self, address: u32, value: u64) -> Result<(), SimError> {
        Self::check(address, 8)?;
        self.write_u32(address, value as u32)?;
        self.write_u32(address + 4, (value >> 32) as u32)
    }

    /// Copies a byte slice into memory starting at `address`, one page
    /// slice at a time.
    ///
    /// # Errors
    ///
    /// [`SimError::AccessOutOfRange`] if the slice would cross the top of
    /// user space, naming the first address past it; the bytes below it
    /// are written, as a byte-by-byte copy would leave them.
    pub fn write_bytes(&mut self, address: u32, bytes: &[u8]) -> Result<(), SimError> {
        let mut cursor = address;
        let mut rest = bytes;
        while !rest.is_empty() {
            Self::check(cursor, 1)?;
            let offset = cursor as usize & (PAGE_SIZE - 1);
            let n = rest.len().min(PAGE_SIZE - offset);
            self.page_mut(cursor)[offset..offset + n].copy_from_slice(&rest[..n]);
            // A page ends at or below `USER_SPACE`, so this cannot wrap.
            cursor += n as u32;
            rest = &rest[n..];
        }
        Ok(())
    }

    /// Reads `len` bytes starting at `address`, one page slice at a time.
    ///
    /// # Errors
    ///
    /// [`SimError::AccessOutOfRange`] if the range crosses the top of user
    /// space.
    pub fn read_bytes(&self, address: u32, len: usize) -> Result<Vec<u8>, SimError> {
        let mut out = Vec::with_capacity(len.min(PAGE_SIZE));
        let mut cursor = address;
        while out.len() < len {
            Self::check(cursor, 1)?;
            let offset = cursor as usize & (PAGE_SIZE - 1);
            let n = (len - out.len()).min(PAGE_SIZE - offset);
            match self.page(cursor) {
                Some(page) => out.extend_from_slice(&page[offset..offset + n]),
                None => out.resize(out.len() + n, 0),
            }
            cursor += n as u32;
        }
        Ok(out)
    }

    /// Reads a NUL-terminated string starting at `address` (for the
    /// `print_string` syscall). Invalid UTF-8 is replaced.
    ///
    /// # Errors
    ///
    /// [`SimError::AccessOutOfRange`] if the string runs past user space.
    pub fn read_cstring(&self, address: u32) -> Result<String, SimError> {
        let mut bytes = Vec::new();
        let mut cursor = address;
        loop {
            Self::check(cursor, 1)?;
            // An untouched page reads as zero: the string ends here.
            let Some(page) = self.page(cursor) else {
                break;
            };
            let tail = &page[cursor as usize & (PAGE_SIZE - 1)..];
            match tail.iter().position(|&b| b == 0) {
                Some(end) => {
                    bytes.extend_from_slice(&tail[..end]);
                    break;
                }
                None => {
                    bytes.extend_from_slice(tail);
                    cursor += tail.len() as u32;
                }
            }
        }
        Ok(String::from_utf8_lossy(&bytes).into_owned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_fill_and_round_trip() {
        let mut mem = Memory::new();
        assert_eq!(mem.read_u32(0x1000_0000).unwrap(), 0);
        mem.write_u64(0x1000_0000, 0x0123_4567_89AB_CDEF).unwrap();
        assert_eq!(mem.read_u64(0x1000_0000).unwrap(), 0x0123_4567_89AB_CDEF);
        assert_eq!(mem.read_u32(0x1000_0000).unwrap(), 0x89AB_CDEF);
        assert_eq!(mem.read_u32(0x1000_0004).unwrap(), 0x0123_4567);
        assert_eq!(mem.read_u16(0x1000_0002).unwrap(), 0x89AB);
        assert_eq!(mem.read_u8(0x1000_0007).unwrap(), 0x01);
    }

    #[test]
    fn cross_page_bytes() {
        let mut mem = Memory::new();
        let boundary = 0x1000_1000 - 2;
        mem.write_bytes(boundary, &[1, 2, 3, 4]).unwrap();
        assert_eq!(mem.read_bytes(boundary, 4).unwrap(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn alignment_enforced() {
        let mut mem = Memory::new();
        assert_eq!(
            mem.read_u32(0x1000_0002),
            Err(SimError::UnalignedAccess {
                address: 0x1000_0002,
                alignment: 4
            })
        );
        assert_eq!(
            mem.write_u16(0x1000_0001, 0),
            Err(SimError::UnalignedAccess {
                address: 0x1000_0001,
                alignment: 2
            })
        );
        assert_eq!(
            mem.read_u64(0x1000_0004),
            Err(SimError::UnalignedAccess {
                address: 0x1000_0004,
                alignment: 8
            })
        );
    }

    #[test]
    fn user_space_boundary() {
        let mut mem = Memory::new();
        assert!(mem.write_u32(0x7FFF_FFFC, 7).is_ok());
        assert_eq!(
            mem.read_u32(0x8000_0000),
            Err(SimError::AccessOutOfRange {
                address: 0x8000_0000
            })
        );
        assert_eq!(
            mem.read_u8(0xFFFF_FFFF),
            Err(SimError::AccessOutOfRange {
                address: 0xFFFF_FFFF
            })
        );
    }

    #[test]
    fn cstring_reading() {
        let mut mem = Memory::new();
        mem.write_bytes(0x1001_0000, b"hello\0trailing").unwrap();
        assert_eq!(mem.read_cstring(0x1001_0000).unwrap(), "hello");
    }

    #[test]
    fn resident_accounting() {
        let mut mem = Memory::new();
        assert_eq!(mem.resident_bytes(), 0);
        mem.write_u8(0x1000_0000, 1).unwrap();
        mem.write_u8(0x1000_0001, 1).unwrap();
        assert_eq!(mem.resident_bytes(), 4096);
        mem.write_u8(0x2000_0000, 1).unwrap();
        assert_eq!(mem.resident_bytes(), 8192);
    }
}
