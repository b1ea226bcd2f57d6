(* Crypto substrate: known-answer vectors plus structural properties. *)

open Psp_crypto

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let hex_of = Sha256.hex
let bytes_gen n = QCheck2.Gen.(map Bytes.of_string (string_size (return n)))

(* ------------------------------------------------------------------ *)
(* SHA-256: FIPS 180-4 known-answer tests *)

let test_sha256_empty () =
  Alcotest.(check string) "empty"
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (hex_of (Sha256.digest_string ""))

let test_sha256_abc () =
  Alcotest.(check string) "abc"
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (hex_of (Sha256.digest_string "abc"))

let test_sha256_448bits () =
  Alcotest.(check string) "two-block boundary"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (hex_of (Sha256.digest_string "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))

let test_sha256_million_a () =
  let ctx = Sha256.init () in
  for _ = 1 to 1000 do
    Sha256.feed_string ctx (String.make 1000 'a')
  done;
  Alcotest.(check string) "million a"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (hex_of (Sha256.finalize ctx))

let test_sha256_streaming_equals_oneshot () =
  let data = String.init 1000 (fun i -> Char.chr (i mod 251)) in
  let ctx = Sha256.init () in
  (* feed in awkward chunk sizes crossing block boundaries *)
  let pos = ref 0 and step = ref 1 in
  while !pos < String.length data do
    let take = min !step (String.length data - !pos) in
    Sha256.feed_string ctx (String.sub data !pos take);
    pos := !pos + take;
    step := (!step * 2 mod 97) + 1
  done;
  Alcotest.(check string) "streaming == one-shot"
    (hex_of (Sha256.digest_string data))
    (hex_of (Sha256.finalize ctx))

(* ------------------------------------------------------------------ *)
(* HMAC-SHA-256: RFC 4231 vectors *)

let test_hmac_rfc4231_case1 () =
  let key = Bytes.make 20 '\x0b' in
  Alcotest.(check string) "case 1"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (hex_of (Hmac.mac_string ~key "Hi There"))

let test_hmac_rfc4231_case2 () =
  let key = Bytes.of_string "Jefe" in
  Alcotest.(check string) "case 2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (hex_of (Hmac.mac_string ~key "what do ya want for nothing?"))

let test_hmac_rfc4231_case3 () =
  let key = Bytes.make 20 '\xaa' in
  let data = Bytes.make 50 '\xdd' in
  Alcotest.(check string) "case 3"
    "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
    (hex_of (Hmac.mac ~key data))

let test_hmac_rfc4231_long_key () =
  let key = Bytes.make 131 '\xaa' in
  Alcotest.(check string) "case 6 (key > block)"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
    (hex_of (Hmac.mac_string ~key "Test Using Larger Than Block-Size Key - Hash Key First"))

let test_hmac_verify () =
  let key = Bytes.of_string "secret" in
  let tag = Hmac.mac_string ~key "message" in
  Alcotest.(check bool) "accepts" true (Hmac.verify ~key (Bytes.of_string "message") ~tag);
  Alcotest.(check bool) "rejects" false (Hmac.verify ~key (Bytes.of_string "messagf") ~tag)

let test_hmac_derive_labels () =
  let key = Bytes.of_string "master" in
  let a = Hmac.derive ~key ~label:"a" and b = Hmac.derive ~key ~label:"b" in
  Alcotest.(check bool) "independent" true (a <> b);
  Alcotest.(check bool) "deterministic" true (a = Hmac.derive ~key ~label:"a")

let hmac_prepared_matches_mac =
  qtest ~count:200 "mac_prepared (prepare k) = mac ~key:k, prefix streamed"
    QCheck2.Gen.(
      let* klen = oneofl [ 0; 32; 64; 65; 131 ] in
      let* key = bytes_gen klen in
      let* plen = int_range 0 80 in
      let* prefix = bytes_gen plen in
      let* dlen = int_range 0 300 in
      let* data = bytes_gen dlen in
      return (key, prefix, data))
    (fun (key, prefix, data) ->
      let p = Hmac.prepare key in
      let tag = Hmac.mac ~key data in
      (* twice: the prepared key's scratch state must be reusable *)
      Hmac.mac_prepared p data = tag
      && Hmac.mac_prepared p data = tag
      && Hmac.mac_prepared p ~prefix data = Hmac.mac ~key (Bytes.cat prefix data)
      && Hmac.verify_prepared p data ~tag
      && not (Hmac.verify_prepared p ~prefix:(Bytes.make 1 'x') data ~tag))

let test_hmac_prepared_rfc4231 () =
  let p = Hmac.prepare (Bytes.make 131 '\xaa') in
  Alcotest.(check string) "case 6 (key > block)"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
    (hex_of
       (Hmac.mac_prepared p ~prefix:(Bytes.of_string "Test Using Larger ")
          (Bytes.of_string "Than Block-Size Key - Hash Key First")))

(* ------------------------------------------------------------------ *)
(* ChaCha20: RFC 8439 §2.4.2 test vector *)

let rfc8439_key = Bytes.init 32 Char.chr

let rfc8439_nonce =
  Bytes.of_string "\x00\x00\x00\x00\x00\x00\x00\x4a\x00\x00\x00\x00"

let test_chacha20_rfc8439 () =
  let plaintext =
    "Ladies and Gentlemen of the class of '99: If I could offer you \
     only one tip for the future, sunscreen would be it."
  in
  let ciphertext =
    Chacha20.encrypt ~key:rfc8439_key ~nonce:rfc8439_nonce ~counter:1
      (Bytes.of_string plaintext)
  in
  Alcotest.(check string) "first 16 bytes"
    "6e2e359a2568f98041ba0728dd0d6981"
    (hex_of (Bytes.sub ciphertext 0 16));
  Alcotest.(check string) "last 16 bytes"
    "0bbf74a35be6b40b8eedf2785e42874d"
    (hex_of (Bytes.sub ciphertext (Bytes.length ciphertext - 16) 16))

let chacha20_roundtrip =
  qtest "chacha20 decrypt . encrypt = id" QCheck2.Gen.(string_size (int_range 0 300))
    (fun s ->
      let key = Sha256.digest_string "k" in
      let nonce = Bytes.make 12 'n' in
      let data = Bytes.of_string s in
      Chacha20.decrypt ~key ~nonce (Chacha20.encrypt ~key ~nonce data) = data)

let test_chacha20_nonce_separation () =
  let key = Sha256.digest_string "k" in
  let data = Bytes.make 64 'x' in
  let c1 = Chacha20.encrypt ~key ~nonce:(Bytes.make 12 '1') data in
  let c2 = Chacha20.encrypt ~key ~nonce:(Bytes.make 12 '2') data in
  Alcotest.(check bool) "distinct ciphertexts" true (c1 <> c2)

let test_chacha20_bad_sizes () =
  Alcotest.check_raises "short key" (Invalid_argument "Chacha20: key must be 32 bytes")
    (fun () -> ignore (Chacha20.block ~key:(Bytes.make 16 'k') ~nonce:(Bytes.make 12 'n') ~counter:0));
  Alcotest.check_raises "short nonce" (Invalid_argument "Chacha20: nonce must be 12 bytes")
    (fun () -> ignore (Chacha20.block ~key:(Bytes.make 32 'k') ~nonce:(Bytes.make 8 'n') ~counter:0))

(* The byte-level ChaCha20 the word-level code replaced, kept verbatim
   as an oracle: one keystream block per 64 bytes, read and written a
   byte at a time. *)
module Byte_chacha20 = struct
  let mask = 0xFFFFFFFF

  let read_le32 b off =
    Char.code (Bytes.get b off)
    lor (Char.code (Bytes.get b (off + 1)) lsl 8)
    lor (Char.code (Bytes.get b (off + 2)) lsl 16)
    lor (Char.code (Bytes.get b (off + 3)) lsl 24)

  let write_le32 b off v =
    Bytes.set b off (Char.chr (v land 0xFF));
    Bytes.set b (off + 1) (Char.chr ((v lsr 8) land 0xFF));
    Bytes.set b (off + 2) (Char.chr ((v lsr 16) land 0xFF));
    Bytes.set b (off + 3) (Char.chr ((v lsr 24) land 0xFF))

  let rotl x n = ((x lsl n) lor (x lsr (32 - n))) land mask

  let quarter_round st a b c d =
    st.(a) <- (st.(a) + st.(b)) land mask;
    st.(d) <- rotl (st.(d) lxor st.(a)) 16;
    st.(c) <- (st.(c) + st.(d)) land mask;
    st.(b) <- rotl (st.(b) lxor st.(c)) 12;
    st.(a) <- (st.(a) + st.(b)) land mask;
    st.(d) <- rotl (st.(d) lxor st.(a)) 8;
    st.(c) <- (st.(c) + st.(d)) land mask;
    st.(b) <- rotl (st.(b) lxor st.(c)) 7

  let block ~key ~nonce ~counter =
    let st = Array.make 16 0 in
    st.(0) <- 0x61707865;
    st.(1) <- 0x3320646e;
    st.(2) <- 0x79622d32;
    st.(3) <- 0x6b206574;
    for i = 0 to 7 do
      st.(4 + i) <- read_le32 key (4 * i)
    done;
    st.(12) <- counter land mask;
    for i = 0 to 2 do
      st.(13 + i) <- read_le32 nonce (4 * i)
    done;
    let working = Array.copy st in
    for _ = 1 to 10 do
      quarter_round working 0 4 8 12;
      quarter_round working 1 5 9 13;
      quarter_round working 2 6 10 14;
      quarter_round working 3 7 11 15;
      quarter_round working 0 5 10 15;
      quarter_round working 1 6 11 12;
      quarter_round working 2 7 8 13;
      quarter_round working 3 4 9 14
    done;
    let out = Bytes.create 64 in
    for i = 0 to 15 do
      write_le32 out (4 * i) ((working.(i) + st.(i)) land mask)
    done;
    out

  let encrypt ~key ~nonce ~counter data =
    let n = Bytes.length data in
    let out = Bytes.create n in
    for b = 0 to ((n + 63) / 64) - 1 do
      let ks = block ~key ~nonce ~counter:(counter + b) in
      let off = 64 * b in
      for i = 0 to min 64 (n - off) - 1 do
        Bytes.set out (off + i)
          (Char.chr (Char.code (Bytes.get data (off + i)) lxor Char.code (Bytes.get ks i)))
      done
    done;
    out
end

let chacha20_matches_byte_oracle =
  qtest ~count:300 "chacha20 = byte-level oracle (partial blocks, counter wrap)"
    QCheck2.Gen.(
      let* len = int_range 0 300 in
      let* counter = oneof [ int_range 0 0xFFFFFFFF; int_range 0xFFFFFFF0 0xFFFFFFFF ] in
      let* key = bytes_gen 32 in
      let* nonce = bytes_gen 12 in
      let* data = bytes_gen len in
      return (key, nonce, counter, data))
    (fun (key, nonce, counter, data) ->
      Chacha20.encrypt ~key ~nonce ~counter data
      = Byte_chacha20.encrypt ~key ~nonce ~counter data
      && Chacha20.block ~key ~nonce ~counter = Byte_chacha20.block ~key ~nonce ~counter)

let test_chacha20_pinned () =
  (* the top of the counter range: the third block wraps to counter 0 *)
  let out =
    Chacha20.encrypt ~key:(Sha256.digest_string "chacha pin") ~nonce:(Bytes.make 12 '\001')
      ~counter:0xFFFFFFFE
      (Bytes.init 200 (fun i -> Char.chr (i land 255)))
  in
  Alcotest.(check string) "digest"
    "c8ca8a3a57230b83c7f53ecaa2c795b8391e5c674f0c5356542a84ac9ea037d0"
    (hex_of (Sha256.digest out))

(* ------------------------------------------------------------------ *)
(* PRF *)

let test_prf_deterministic () =
  let key = Sha256.digest_string "key" in
  let f = Prf.create ~key ~label:"test" in
  Alcotest.(check int) "same input same output" (Prf.int f 42) (Prf.int f 42);
  Alcotest.(check bool) "nonnegative" true (Prf.int f 42 >= 0)

let test_prf_label_separation () =
  let key = Sha256.digest_string "key" in
  let a = Prf.create ~key ~label:"a" and b = Prf.create ~key ~label:"b" in
  let differ = ref 0 in
  for x = 0 to 63 do
    if Prf.int a x <> Prf.int b x then incr differ
  done;
  Alcotest.(check bool) "labels separate" true (!differ > 60)

let prf_int_mod_range =
  qtest "prf int_mod in range" QCheck2.Gen.(pair small_nat (int_range 1 1000))
    (fun (x, m) ->
      let f = Prf.create ~key:(Sha256.digest_string "k") ~label:"r" in
      let v = Prf.int_mod f x m in
      v >= 0 && v < m)

let test_prf_bytes_length () =
  let f = Prf.create ~key:(Sha256.digest_string "k") ~label:"b" in
  List.iter
    (fun n -> Alcotest.(check int) "length" n (Bytes.length (Prf.bytes f 7 n)))
    [ 1; 31; 32; 33; 100 ]

let test_prf_indices () =
  let f = Prf.create ~key:(Sha256.digest_string "k") ~label:"i" in
  let idx = Prf.indices f 123 ~count:5 ~modulus:97 in
  Alcotest.(check int) "count" 5 (List.length idx);
  List.iter (fun i -> Alcotest.(check bool) "range" true (i >= 0 && i < 97)) idx;
  Alcotest.(check (list int)) "deterministic" idx (Prf.indices f 123 ~count:5 ~modulus:97)

(* ------------------------------------------------------------------ *)
(* Feistel small-domain PRP *)

let feistel_bijective =
  qtest ~count:50 "feistel is a bijection on [0,n)" QCheck2.Gen.(int_range 1 500)
    (fun n ->
      let p = Feistel.create ~key:(Sha256.digest_string "k") ~domain:n in
      let image = Feistel.to_array p in
      let sorted = Array.copy image in
      Array.sort compare sorted;
      sorted = Array.init n (fun i -> i))

let feistel_inverse =
  qtest ~count:50 "feistel backward inverts forward"
    QCheck2.Gen.(pair (int_range 1 500) small_nat)
    (fun (n, x) ->
      let x = x mod n in
      let p = Feistel.create ~key:(Sha256.digest_string "inv") ~domain:n in
      Feistel.backward p (Feistel.forward p x) = x
      && Feistel.forward p (Feistel.backward p x) = x)

let test_feistel_key_sensitivity () =
  let n = 256 in
  let p1 = Feistel.create ~key:(Sha256.digest_string "a") ~domain:n in
  let p2 = Feistel.create ~key:(Sha256.digest_string "b") ~domain:n in
  let same = Array.to_list (Array.init n (fun i -> Feistel.forward p1 i = Feistel.forward p2 i)) in
  let count = List.length (List.filter Fun.id same) in
  Alcotest.(check bool) "permutations differ" true (count < n / 4)

let test_feistel_domain_checks () =
  let p = Feistel.create ~key:(Sha256.digest_string "k") ~domain:10 in
  Alcotest.(check int) "domain" 10 (Feistel.domain p);
  Alcotest.check_raises "out of domain" (Invalid_argument "Feistel: point out of domain")
    (fun () -> ignore (Feistel.forward p 10))

(* ------------------------------------------------------------------ *)
(* Bloom filter *)

let test_bloom_no_false_negatives () =
  let key = Sha256.digest_string "bloom" in
  let b = Bloom.sized_for ~key ~label:"t" ~expected:500 ~fp_rate:0.01 in
  for x = 0 to 499 do
    Bloom.add b (x * 7)
  done;
  for x = 0 to 499 do
    Alcotest.(check bool) "member found" true (Bloom.mem b (x * 7))
  done;
  Alcotest.(check int) "count" 500 (Bloom.count b)

let test_bloom_fp_rate () =
  let key = Sha256.digest_string "bloom2" in
  let b = Bloom.sized_for ~key ~label:"fp" ~expected:1000 ~fp_rate:0.01 in
  for x = 0 to 999 do
    Bloom.add b x
  done;
  let fp = ref 0 in
  let probes = 10_000 in
  for x = 1_000_000 to 1_000_000 + probes - 1 do
    if Bloom.mem b x then incr fp
  done;
  let rate = float_of_int !fp /. float_of_int probes in
  Alcotest.(check bool) (Printf.sprintf "fp rate %.4f < 0.03" rate) true (rate < 0.03);
  Alcotest.(check bool) "estimate sane" true (Bloom.fp_estimate b < 0.03)

let test_bloom_clear () =
  let key = Sha256.digest_string "bloom3" in
  let b = Bloom.create ~key ~label:"c" ~bits:128 ~hashes:3 in
  Bloom.add b 1;
  Bloom.clear b;
  Alcotest.(check int) "count reset" 0 (Bloom.count b);
  Alcotest.(check bool) "cleared" false (Bloom.mem b 1)

(* ------------------------------------------------------------------ *)
(* Known answers pinned from the byte-level implementation.  Slot
   numbers, Bloom probes and therefore every ORAM trace are functions of
   these values: a faster primitive must reproduce them bit for bit. *)

let test_feistel_pinned () =
  List.iter
    (fun (n, digest) ->
      let p = Feistel.create ~key:(Sha256.digest_string "feistel pin") ~domain:n in
      let rendered =
        String.concat "," (Array.to_list (Array.map string_of_int (Feistel.to_array p)))
      in
      Alcotest.(check string) (Printf.sprintf "domain %d" n) digest
        (hex_of (Sha256.digest_string rendered)))
    [ (1, "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9");
      (7, "f1920e54c8776460adad082d17494f1c494bc40f4035e65c8e8ddba583106a67");
      (300, "bb09a5bf0529ab390832f6ca2409a52df44466f53ea1820d79727149f113a91f");
      (4096, "b858af7b95018a0ad21fcd81251a3a3795cd6fa60ac54e58d5343fd1093d8aad") ]

let test_prf_pinned () =
  let f = Prf.create ~key:(Sha256.digest_string "prf pin") ~label:"pin" in
  Alcotest.(check (list int)) "int"
    [ 2626211589100177223; 484284121609501215; 3075035974414288128;
      543155164818416353; 1107441527636842520 ]
    (List.map (Prf.int f) [ 0; 1; 42; 65535; 1 lsl 40 ]);
  Alcotest.(check (list int)) "indices" [ 748; 226; 549; 730; 733; 349; 150 ]
    (Prf.indices f 123 ~count:7 ~modulus:1009);
  Alcotest.(check string) "bytes"
    "9d7829dfa0c336c9453873fb5d768d0d2f404437303b3fc4f48fe91575f1b01492ae240484f7f206\
     8e631ae2bea7592f52aec1c5d442657a84fd53079c5665b2c6adf43c4ee5"
    (hex_of (Prf.bytes f 7 70))

let test_bloom_pinned () =
  (* an overloaded filter, so the pinned false positives are many *)
  let b = Bloom.create ~key:(Sha256.digest_string "bloom pin") ~label:"pin" ~bits:128 ~hashes:3 in
  List.iter (Bloom.add b) (List.init 34 (fun i -> 3 * i));
  let members = List.filter (Bloom.mem b) (List.init 300 Fun.id) in
  Alcotest.(check int) "members" 79 (List.length members);
  Alcotest.(check (list int)) "false positives"
    [ 1; 7; 11; 20; 28; 31; 32; 47; 49; 67; 94; 101; 110; 127; 137; 144; 155; 156; 163;
      168; 170; 172; 179; 182; 187; 193; 203; 204; 205; 207; 208; 209; 210; 217; 221;
      222; 226; 239; 241; 257; 263; 277; 280; 284; 299 ]
    (List.filter (fun x -> x mod 3 <> 0 || x >= 100) members)

let () =
  Alcotest.run "crypto"
    [ ( "sha256",
        [ Alcotest.test_case "empty" `Quick test_sha256_empty;
          Alcotest.test_case "abc" `Quick test_sha256_abc;
          Alcotest.test_case "448 bits" `Quick test_sha256_448bits;
          Alcotest.test_case "million a" `Slow test_sha256_million_a;
          Alcotest.test_case "streaming" `Quick test_sha256_streaming_equals_oneshot ] );
      ( "hmac",
        [ Alcotest.test_case "rfc4231 case1" `Quick test_hmac_rfc4231_case1;
          Alcotest.test_case "rfc4231 case2" `Quick test_hmac_rfc4231_case2;
          Alcotest.test_case "rfc4231 case3" `Quick test_hmac_rfc4231_case3;
          Alcotest.test_case "rfc4231 long key" `Quick test_hmac_rfc4231_long_key;
          Alcotest.test_case "verify" `Quick test_hmac_verify;
          Alcotest.test_case "derive labels" `Quick test_hmac_derive_labels;
          Alcotest.test_case "prepared rfc4231" `Quick test_hmac_prepared_rfc4231;
          hmac_prepared_matches_mac ] );
      ( "chacha20",
        [ Alcotest.test_case "rfc8439 vector" `Quick test_chacha20_rfc8439;
          chacha20_roundtrip;
          Alcotest.test_case "nonce separation" `Quick test_chacha20_nonce_separation;
          Alcotest.test_case "bad sizes" `Quick test_chacha20_bad_sizes;
          chacha20_matches_byte_oracle;
          Alcotest.test_case "pinned" `Quick test_chacha20_pinned ] );
      ( "prf",
        [ Alcotest.test_case "deterministic" `Quick test_prf_deterministic;
          Alcotest.test_case "label separation" `Quick test_prf_label_separation;
          prf_int_mod_range;
          Alcotest.test_case "bytes length" `Quick test_prf_bytes_length;
          Alcotest.test_case "indices" `Quick test_prf_indices ] );
      ( "feistel",
        [ feistel_bijective;
          feistel_inverse;
          Alcotest.test_case "key sensitivity" `Quick test_feistel_key_sensitivity;
          Alcotest.test_case "domain checks" `Quick test_feistel_domain_checks ] );
      ( "bloom",
        [ Alcotest.test_case "no false negatives" `Quick test_bloom_no_false_negatives;
          Alcotest.test_case "fp rate" `Slow test_bloom_fp_rate;
          Alcotest.test_case "clear" `Quick test_bloom_clear ] );
      ( "known answers",
        [ Alcotest.test_case "feistel" `Quick test_feistel_pinned;
          Alcotest.test_case "prf" `Quick test_prf_pinned;
          Alcotest.test_case "bloom" `Quick test_bloom_pinned ] ) ]
