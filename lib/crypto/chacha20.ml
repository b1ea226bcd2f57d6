(* Word-level ChaCha20.  The key and nonce are read once per call into a
   16-word input state, one keystream array serves every block, and the
   keystream is XORed into the data a 32-bit word at a time.  All words
   live in native ints masked to 32 bits. *)

let mask = 0xFFFFFFFF

external get32 : bytes -> int -> int32 = "%caml_bytes_get32"
external set32 : bytes -> int -> int32 -> unit = "%caml_bytes_set32"
external bswap32 : int32 -> int32 = "%bswap_int32"

(* The primitives read and write native-endian words; ChaCha20 is
   little-endian, so big-endian hosts swap (the test folds to a
   constant). *)
let le v = if Sys.big_endian then bswap32 v else v

let get_le32 b off = Int32.to_int (le (get32 b off)) land mask

(* dst[off..off+3] <- src[off..off+3] xor the little-endian bytes of [w].
   psplint does not model the word primitives as mutators; the flow from
   the data and keystream into [out] stays visible to it through the
   partial-block loop in [encrypt], which writes [out] with Bytes.set. *)
let xor_word src dst off w =
  set32 dst off (Int32.logxor (get32 src off) (le (Int32.of_int w)))

let rotl x n = ((x lsl n) lor (x lsr (32 - n))) land mask

(* x <- the keystream block of input state [st]: 20 rounds, then the
   feed-forward addition.  The rounds run on sixteen local words, which
   the compiler keeps in registers or stack slots: a quarter-round
   function over refs would heap-allocate them (no flambda here), and
   one over an array pays a load, a store and a bounds check for every
   word it touches, which made it twice as slow. *)
let keystream_block st x =
  let x0 = ref st.(0) and x1 = ref st.(1) and x2 = ref st.(2) and x3 = ref st.(3) in
  let x4 = ref st.(4) and x5 = ref st.(5) and x6 = ref st.(6) and x7 = ref st.(7) in
  let x8 = ref st.(8) and x9 = ref st.(9) and x10 = ref st.(10) and x11 = ref st.(11) in
  let x12 = ref st.(12) and x13 = ref st.(13) and x14 = ref st.(14) and x15 = ref st.(15) in
  for _ = 1 to 10 do
    (* columns *)
    x0 := (!x0 + !x4) land mask; x12 := rotl (!x12 lxor !x0) 16;
    x8 := (!x8 + !x12) land mask; x4 := rotl (!x4 lxor !x8) 12;
    x0 := (!x0 + !x4) land mask; x12 := rotl (!x12 lxor !x0) 8;
    x8 := (!x8 + !x12) land mask; x4 := rotl (!x4 lxor !x8) 7;
    x1 := (!x1 + !x5) land mask; x13 := rotl (!x13 lxor !x1) 16;
    x9 := (!x9 + !x13) land mask; x5 := rotl (!x5 lxor !x9) 12;
    x1 := (!x1 + !x5) land mask; x13 := rotl (!x13 lxor !x1) 8;
    x9 := (!x9 + !x13) land mask; x5 := rotl (!x5 lxor !x9) 7;
    x2 := (!x2 + !x6) land mask; x14 := rotl (!x14 lxor !x2) 16;
    x10 := (!x10 + !x14) land mask; x6 := rotl (!x6 lxor !x10) 12;
    x2 := (!x2 + !x6) land mask; x14 := rotl (!x14 lxor !x2) 8;
    x10 := (!x10 + !x14) land mask; x6 := rotl (!x6 lxor !x10) 7;
    x3 := (!x3 + !x7) land mask; x15 := rotl (!x15 lxor !x3) 16;
    x11 := (!x11 + !x15) land mask; x7 := rotl (!x7 lxor !x11) 12;
    x3 := (!x3 + !x7) land mask; x15 := rotl (!x15 lxor !x3) 8;
    x11 := (!x11 + !x15) land mask; x7 := rotl (!x7 lxor !x11) 7;
    (* diagonals *)
    x0 := (!x0 + !x5) land mask; x15 := rotl (!x15 lxor !x0) 16;
    x10 := (!x10 + !x15) land mask; x5 := rotl (!x5 lxor !x10) 12;
    x0 := (!x0 + !x5) land mask; x15 := rotl (!x15 lxor !x0) 8;
    x10 := (!x10 + !x15) land mask; x5 := rotl (!x5 lxor !x10) 7;
    x1 := (!x1 + !x6) land mask; x12 := rotl (!x12 lxor !x1) 16;
    x11 := (!x11 + !x12) land mask; x6 := rotl (!x6 lxor !x11) 12;
    x1 := (!x1 + !x6) land mask; x12 := rotl (!x12 lxor !x1) 8;
    x11 := (!x11 + !x12) land mask; x6 := rotl (!x6 lxor !x11) 7;
    x2 := (!x2 + !x7) land mask; x13 := rotl (!x13 lxor !x2) 16;
    x8 := (!x8 + !x13) land mask; x7 := rotl (!x7 lxor !x8) 12;
    x2 := (!x2 + !x7) land mask; x13 := rotl (!x13 lxor !x2) 8;
    x8 := (!x8 + !x13) land mask; x7 := rotl (!x7 lxor !x8) 7;
    x3 := (!x3 + !x4) land mask; x14 := rotl (!x14 lxor !x3) 16;
    x9 := (!x9 + !x14) land mask; x4 := rotl (!x4 lxor !x9) 12;
    x3 := (!x3 + !x4) land mask; x14 := rotl (!x14 lxor !x3) 8;
    x9 := (!x9 + !x14) land mask; x4 := rotl (!x4 lxor !x9) 7
  done;
  x.(0) <- (!x0 + st.(0)) land mask;
  x.(1) <- (!x1 + st.(1)) land mask;
  x.(2) <- (!x2 + st.(2)) land mask;
  x.(3) <- (!x3 + st.(3)) land mask;
  x.(4) <- (!x4 + st.(4)) land mask;
  x.(5) <- (!x5 + st.(5)) land mask;
  x.(6) <- (!x6 + st.(6)) land mask;
  x.(7) <- (!x7 + st.(7)) land mask;
  x.(8) <- (!x8 + st.(8)) land mask;
  x.(9) <- (!x9 + st.(9)) land mask;
  x.(10) <- (!x10 + st.(10)) land mask;
  x.(11) <- (!x11 + st.(11)) land mask;
  x.(12) <- (!x12 + st.(12)) land mask;
  x.(13) <- (!x13 + st.(13)) land mask;
  x.(14) <- (!x14 + st.(14)) land mask;
  x.(15) <- (!x15 + st.(15)) land mask

let encrypt ~key ~nonce ?(counter = 0) data =
  if Bytes.length key <> 32 then invalid_arg "Chacha20: key must be 32 bytes";
  if Bytes.length nonce <> 12 then invalid_arg "Chacha20: nonce must be 12 bytes";
  let st = Array.make 16 0 in
  st.(0) <- 0x61707865;
  st.(1) <- 0x3320646e;
  st.(2) <- 0x79622d32;
  st.(3) <- 0x6b206574;
  for i = 0 to 7 do
    st.(4 + i) <- get_le32 key (4 * i)
  done;
  for i = 0 to 2 do
    st.(13 + i) <- get_le32 nonce (4 * i)
  done;
  let x = Array.make 16 0 in
  let n = Bytes.length data in
  let out = Bytes.create n in
  for b = 0 to ((n + 63) / 64) - 1 do
    st.(12) <- (counter + b) land mask;
    keystream_block st x;
    let off = 64 * b in
    if n - off >= 64 then
      for i = 0 to 15 do
        xor_word data out (off + (4 * i)) x.(i)
      done
    else
      (* the final partial block, a byte at a time *)
      for j = 0 to n - off - 1 do
        let k = (x.(j lsr 2) lsr (8 * (j land 3))) land 0xFF in
        Bytes.set out (off + j) (Char.chr (Char.code (Bytes.get data (off + j)) lxor k))
      done
  done;
  out

let decrypt = encrypt

let block ~key ~nonce ~counter = encrypt ~key ~nonce ~counter (Bytes.make 64 '\000')

let keystream ~key ~nonce n = encrypt ~key ~nonce (Bytes.make n '\000')
