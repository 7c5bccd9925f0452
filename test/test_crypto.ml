(* Tests for the from-scratch cryptography: standard vectors plus algebraic
   property tests. *)

let qtest = QCheck_alcotest.to_alcotest

let hex = Crypto.Hexs.encode

(* --- SHA-256 (FIPS 180-4 / NIST CAVP vectors) ----------------------------- *)

let sha_vectors =
  [
    ("", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    ("abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1" );
    ( "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
      "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1" );
  ]

let test_sha256_vectors () =
  List.iter
    (fun (msg, want) -> Alcotest.(check string) ("sha256 " ^ msg) want (Crypto.Sha256.hex msg))
    sha_vectors

let test_sha256_million_a () =
  Alcotest.(check string) "million a's"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Crypto.Sha256.hex (String.make 1_000_000 'a'))

let sha256_incremental_matches =
  QCheck.Test.make ~name:"incremental = one-shot for any chunking" ~count:200
    QCheck.(pair string (list small_nat))
    (fun (s, cuts) ->
      let ctx = Crypto.Sha256.init () in
      let n = String.length s in
      let pos = ref 0 in
      List.iter
        (fun cut ->
          let take = min cut (n - !pos) in
          if take > 0 then begin
            Crypto.Sha256.update ctx (String.sub s !pos take);
            pos := !pos + take
          end)
        cuts;
      if !pos < n then Crypto.Sha256.update ctx (String.sub s !pos (n - !pos));
      String.equal (Crypto.Sha256.finalize ctx) (Crypto.Sha256.digest s))

let test_sha256_digest_list () =
  Alcotest.(check string) "digest_list = digest of concat"
    (hex (Crypto.Sha256.digest "foobarbaz"))
    (hex (Crypto.Sha256.digest_list [ "foo"; "bar"; "baz" ]))

(* Known-answer tests for the streaming context across odd block boundaries:
   every FIPS vector, fed in two chunks split just before, at, and just
   after the 64-byte block edge (and at byte 1), must reproduce the
   one-shot digest.  Guards block-buffer bookkeeping during future kernel
   optimization work. *)
let test_sha256_streaming_boundaries () =
  List.iter
    (fun (msg, want) ->
      List.iter
        (fun cut ->
          if cut > 0 && cut < String.length msg then begin
            let ctx = Crypto.Sha256.init () in
            Crypto.Sha256.update ctx (String.sub msg 0 cut);
            Crypto.Sha256.update ctx (String.sub msg cut (String.length msg - cut));
            Alcotest.(check string)
              (Printf.sprintf "len %d split at %d" (String.length msg) cut)
              want
              (hex (Crypto.Sha256.finalize ctx))
          end)
        [ 1; 55; 56; 63; 64; 65 ])
    sha_vectors

let test_sha256_streaming_million_a () =
  (* The million-a vector streamed in 997-byte chunks: 997 is odd and no
     divisor of 64, so every update straddles a block boundary. *)
  let ctx = Crypto.Sha256.init () in
  let chunk = String.make 997 'a' in
  let rec feed left =
    if left > 0 then begin
      let take = min left 997 in
      Crypto.Sha256.update ctx (if take = 997 then chunk else String.make take 'a');
      feed (left - take)
    end
  in
  feed 1_000_000;
  Alcotest.(check string) "streamed million a's"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (hex (Crypto.Sha256.finalize ctx))

(* --- HMAC (RFC 4231) ------------------------------------------------------ *)

let test_hmac_rfc4231 () =
  let check name key data want =
    Alcotest.(check string) name want (hex (Crypto.Hmac.mac ~key data))
  in
  check "case 1"
    (String.make 20 '\x0b')
    "Hi There" "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7";
  check "case 2" "Jefe" "what do ya want for nothing?"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843";
  check "case 3"
    (String.make 20 '\xaa')
    (String.make 50 '\xdd')
    "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe";
  (* case 4: 25-byte incrementing key *)
  check "case 4"
    (String.init 25 (fun i -> Char.chr (i + 1)))
    (String.make 50 '\xcd')
    "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b";
  (* case 6: key longer than the block size *)
  check "case 6"
    (String.make 131 '\xaa')
    "Test Using Larger Than Block-Size Key - Hash Key First"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54";
  (* case 7: key and data both longer than the block size *)
  check "case 7"
    (String.make 131 '\xaa')
    "This is a test using a larger than block-size key and a larger than block-size data. The key needs to be hashed before being used by the HMAC algorithm."
    "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"

let test_hmac_verify () =
  let tag = Crypto.Hmac.mac ~key:"k" "message" in
  Alcotest.(check bool) "accepts" true (Crypto.Hmac.verify ~key:"k" ~tag "message");
  Alcotest.(check bool) "rejects other message" false
    (Crypto.Hmac.verify ~key:"k" ~tag "messagX");
  Alcotest.(check bool) "rejects other key" false (Crypto.Hmac.verify ~key:"K" ~tag "message")

let test_hmac_derive () =
  let a = Crypto.Hmac.derive ~secret:"s" ~label:"a" 48 in
  let b = Crypto.Hmac.derive ~secret:"s" ~label:"b" 48 in
  Alcotest.(check int) "length" 48 (String.length a);
  Alcotest.(check bool) "label separation" false (String.equal a b);
  Alcotest.(check string) "deterministic" a (Crypto.Hmac.derive ~secret:"s" ~label:"a" 48);
  (* prefix property: derive is a stream *)
  Alcotest.(check string) "prefix consistent"
    (String.sub a 0 16)
    (Crypto.Hmac.derive ~secret:"s" ~label:"a" 16)

(* --- ChaCha20 (RFC 8439) --------------------------------------------------- *)

let test_chacha20_rfc_block () =
  let key =
    Crypto.Hexs.decode "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"
  in
  let nonce = Crypto.Hexs.decode "000000090000004a00000000" in
  let block = Crypto.Chacha20.block ~key ~nonce ~counter:1 in
  Alcotest.(check string) "RFC 8439 2.3.2 keystream"
    "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4ed2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
    (hex block)

let test_chacha20_rfc_encrypt () =
  let key =
    Crypto.Hexs.decode "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"
  in
  let nonce = Crypto.Hexs.decode "000000000000004a00000000" in
  let plaintext =
    "Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it."
  in
  let cipher = Crypto.Chacha20.xor ~key ~nonce ~counter:1 plaintext in
  Alcotest.(check string) "RFC 8439 2.4.2 ciphertext prefix"
    "6e2e359a2568f98041ba0728dd0d6981" (String.sub (hex cipher) 0 32)

let chacha20_involution =
  QCheck.Test.make ~name:"xor is its own inverse" ~count:200 QCheck.string (fun s ->
      let key = Crypto.Sha256.digest "key" in
      let nonce = String.sub (Crypto.Sha256.digest "nonce") 0 12 in
      String.equal s (Crypto.Chacha20.xor ~key ~nonce (Crypto.Chacha20.xor ~key ~nonce s)))

let test_chacha20_bad_sizes () =
  Alcotest.check_raises "short key" (Invalid_argument "Chacha20: key must be 32 bytes")
    (fun () -> ignore (Crypto.Chacha20.block ~key:"short" ~nonce:(String.make 12 '0') ~counter:0));
  Alcotest.check_raises "short nonce" (Invalid_argument "Chacha20: nonce must be 12 bytes")
    (fun () ->
      ignore (Crypto.Chacha20.block ~key:(String.make 32 'k') ~nonce:"short" ~counter:0))

(* --- DRBG ------------------------------------------------------------------ *)

let test_drbg_deterministic () =
  let a = Crypto.Drbg.create ~seed:"s" and b = Crypto.Drbg.create ~seed:"s" in
  Alcotest.(check string) "same stream"
    (hex (Crypto.Drbg.random_bytes a 64))
    (hex (Crypto.Drbg.random_bytes b 64))

let test_drbg_streams_differ () =
  let a = Crypto.Drbg.create ~seed:"s1" and b = Crypto.Drbg.create ~seed:"s2" in
  Alcotest.(check bool) "different seeds differ" false
    (String.equal (Crypto.Drbg.random_bytes a 32) (Crypto.Drbg.random_bytes b 32))

let test_drbg_reseed_changes_stream () =
  let a = Crypto.Drbg.create ~seed:"s" and b = Crypto.Drbg.create ~seed:"s" in
  Crypto.Drbg.reseed b "extra entropy";
  Alcotest.(check bool) "reseed diverges" false
    (String.equal (Crypto.Drbg.random_bytes a 32) (Crypto.Drbg.random_bytes b 32))

let drbg_int_bounds =
  QCheck.Test.make ~name:"Drbg.random_int in bounds" ~count:300 QCheck.small_int (fun bound ->
      QCheck.assume (bound > 0);
      let d = Crypto.Drbg.create ~seed:"b" in
      let v = Crypto.Drbg.random_int d bound in
      v >= 0 && v < bound)

(* --- Bignum ----------------------------------------------------------------- *)

module B = Crypto.Bignum

let nat = QCheck.map abs QCheck.int

let test_bignum_roundtrip_int () =
  List.iter
    (fun n -> Alcotest.(check (option int)) "roundtrip" (Some n) (B.to_int (B.of_int n)))
    [ 0; 1; 255; 1 lsl 26; (1 lsl 26) - 1; max_int ]

let bignum_addsub =
  QCheck.Test.make ~name:"(a+b)-b = a" ~count:300 (QCheck.pair nat nat) (fun (a, b) ->
      B.equal (B.of_int a) (B.sub (B.add (B.of_int a) (B.of_int b)) (B.of_int b)))

let bignum_mul_matches_int =
  QCheck.Test.make ~name:"mul matches native for small ints" ~count:300
    QCheck.(pair (int_range 0 (1 lsl 30)) (int_range 0 (1 lsl 30)))
    (fun (a, b) -> B.to_int (B.mul (B.of_int a) (B.of_int b)) = Some (a * b))

let big_of_seed seed bits =
  let d = Crypto.Drbg.create ~seed in
  B.random_bits d bits

let bignum_divmod_invariant =
  QCheck.Test.make ~name:"divmod: a = q*b + r, r < b (512-bit)" ~count:60
    QCheck.(pair small_int small_int)
    (fun (s1, s2) ->
      let a = big_of_seed (string_of_int s1) 512 in
      let b = big_of_seed (string_of_int s2 ^ "x") 256 in
      QCheck.assume (not (B.is_zero b));
      let q, r = B.divmod a b in
      B.equal a (B.add (B.mul q b) r) && B.compare r b < 0)

let bignum_divmod_small_consistent =
  QCheck.Test.make ~name:"divmod_small agrees with divmod" ~count:100
    QCheck.(pair small_int (int_range 1 1000000))
    (fun (s, d) ->
      let a = big_of_seed (string_of_int s) 300 in
      let q1, r1 = B.divmod_small a d in
      let q2, r2 = B.divmod a (B.of_int d) in
      B.equal q1 q2 && B.to_int r2 = Some r1)

let test_bignum_div_by_zero () =
  Alcotest.check_raises "division by zero" Division_by_zero (fun () ->
      ignore (B.divmod B.one B.zero))

let bignum_shift_roundtrip =
  QCheck.Test.make ~name:"shift left then right" ~count:100
    QCheck.(pair small_int (int_range 0 100))
    (fun (s, k) ->
      let a = big_of_seed (string_of_int s) 200 in
      B.equal a (B.shift_right (B.shift_left a k) k))

let bignum_modpow_matches_naive =
  QCheck.Test.make ~name:"mod_pow matches naive small case" ~count:100
    QCheck.(triple (int_range 0 1000) (int_range 0 40) (int_range 2 10000))
    (fun (base, e, m) ->
      let naive = ref 1 in
      for _ = 1 to e do
        naive := !naive * base mod m
      done;
      B.to_int (B.mod_pow ~base:(B.of_int base) ~exp:(B.of_int e) ~modulus:(B.of_int m))
      = Some !naive)

let test_bignum_modpow_fermat () =
  (* Fermat's little theorem on a large prime. *)
  let d = Crypto.Drbg.create ~seed:"fermat" in
  let p = B.generate_prime d ~bits:192 in
  let a = B.random_below d p in
  let a = if B.is_zero a then B.one else a in
  let r = B.mod_pow ~base:a ~exp:(B.sub p B.one) ~modulus:p in
  Alcotest.(check bool) "a^(p-1) = 1 mod p" true (B.equal r B.one)

let bignum_mod_inverse =
  QCheck.Test.make ~name:"mod_inverse: a * a^-1 = 1 (mod m)" ~count:60
    QCheck.(pair small_int small_int)
    (fun (s1, s2) ->
      let d = Crypto.Drbg.create ~seed:(Printf.sprintf "inv%d-%d" s1 s2) in
      let m = B.generate_prime d ~bits:96 in
      let a = B.random_below d m in
      QCheck.assume (not (B.is_zero a));
      match B.mod_inverse a m with
      | None -> false
      | Some inv -> B.equal (B.rem (B.mul a inv) m) B.one)

let test_bignum_mod_inverse_none () =
  Alcotest.(check bool) "no inverse when gcd > 1" true
    (B.mod_inverse (B.of_int 6) (B.of_int 9) = None)

let bignum_bytes_roundtrip =
  QCheck.Test.make ~name:"of_bytes_be/to_bytes_be roundtrip" ~count:100 QCheck.small_int
    (fun s ->
      let a = big_of_seed (string_of_int s) 300 in
      B.equal a (B.of_bytes_be (B.to_bytes_be a)))

let test_bignum_to_bytes_width () =
  let a = B.of_int 0xABCD in
  Alcotest.(check string) "padded" "00000000abcd" (Crypto.Hexs.encode (B.to_bytes_be ~width:6 a));
  Alcotest.check_raises "width too small"
    (Invalid_argument "Bignum.to_bytes_be: width too small") (fun () ->
      ignore (B.to_bytes_be ~width:1 a))

let test_bignum_primality_known () =
  let d = Crypto.Drbg.create ~seed:"primes" in
  List.iter
    (fun (n, expect) ->
      Alcotest.(check bool)
        (string_of_int n) expect
        (B.is_probable_prime d (B.of_int n)))
    [
      (2, true); (3, true); (4, false); (17, true); (561, false) (* Carmichael *);
      (7919, true); (7917, false); (104729, true); (1000003, true); (1000001, false);
    ]

let test_bignum_generate_prime_bits () =
  let d = Crypto.Drbg.create ~seed:"gen" in
  let p = B.generate_prime d ~bits:128 in
  Alcotest.(check int) "bit length" 128 (B.bit_length p);
  Alcotest.(check bool) "odd" true (B.is_odd p);
  Alcotest.(check bool) "probably prime" true (B.is_probable_prime d p)

let test_bignum_gcd () =
  Alcotest.(check (option int)) "gcd" (Some 6)
    (B.to_int (B.gcd (B.of_int 54) (B.of_int 24)));
  Alcotest.(check (option int)) "gcd with zero" (Some 7)
    (B.to_int (B.gcd (B.of_int 7) B.zero))

let test_bignum_hex_roundtrip () =
  let a = big_of_seed "hexrt" 260 in
  Alcotest.(check bool) "hex roundtrip" true (B.equal a (B.of_hex (B.to_hex a)))

(* Regression: values just above 2^62 used to truncate — [limb lsl shift]
   dropped the high bits before the sign check, so 2^64 + 5 came back as
   [Some 5]-style garbage and could misroute primality testing onto the
   small-integer trial-division path. *)
let test_bignum_to_int_overflow () =
  let two_pow k = B.shift_left B.one k in
  Alcotest.(check (option int)) "2^62 - 1 fits" (Some max_int)
    (B.to_int (B.sub (two_pow 62) B.one));
  Alcotest.(check (option int)) "2^62 overflows" None (B.to_int (two_pow 62));
  Alcotest.(check (option int)) "2^63 overflows" None (B.to_int (two_pow 63));
  Alcotest.(check (option int)) "2^64 + 5 overflows (3-limb)" None
    (B.to_int (B.add (two_pow 64) (B.of_int 5)));
  Alcotest.(check (option int)) "2^100 + 1 overflows" None
    (B.to_int (B.add (two_pow 100) B.one));
  (* A 3-limb value whose high limbs are zero after normalization cannot
     exist, but a high-limb value with only low bits set must still fit. *)
  Alcotest.(check (option int)) "(2^62-1) round trips through bytes" (Some max_int)
    (B.to_int (B.of_bytes_be (B.to_bytes_be (B.sub (two_pow 62) B.one))))

(* Differential tests against the native int as reference model: every
   operation on small operands must agree exactly with 63-bit machine
   arithmetic. *)
let bignum_differential_int_model =
  QCheck.Test.make ~name:"add/sub/mul/divmod/mod_pow match int model" ~count:500
    QCheck.(triple (int_range 0 (1 lsl 30)) (int_range 0 (1 lsl 30)) (int_range 1 1000))
    (fun (a, b, m) ->
      let ba = B.of_int a and bb = B.of_int b in
      let hi = max a b and lo = min a b in
      let q, r = B.divmod (B.of_int hi) (B.of_int (max 1 lo)) in
      let e = lo mod 16 and modulus = m + 1 in
      let pow_ref =
        let acc = ref 1 in
        for _ = 1 to e do
          acc := !acc * (a mod modulus) mod modulus
        done;
        !acc
      in
      B.to_int (B.add ba bb) = Some (a + b)
      && B.to_int (B.sub (B.of_int hi) (B.of_int lo)) = Some (hi - lo)
      && B.to_int (B.mul ba bb) = Some (a * b)
      && B.to_int q = Some (hi / max 1 lo)
      && B.to_int r = Some (hi mod max 1 lo)
      && B.to_int
           (B.mod_pow ~base:(B.of_int (a mod modulus)) ~exp:(B.of_int e)
              ~modulus:(B.of_int modulus))
         = Some pow_ref)

(* The windowed Montgomery ladder against the division-based reference, on
   full-width random odd moduli: identical results bit for bit, window on
   or off. *)
let bignum_window_vs_generic =
  QCheck.Test.make ~name:"mod_pow_mont (windowed) = mod_pow_generic, odd moduli" ~count:30
    QCheck.small_int
    (fun s ->
      let m = big_of_seed (Printf.sprintf "winmod%d" s) 200 in
      let m = if B.is_odd m then m else B.add m B.one in
      QCheck.assume (B.compare m B.one > 0);
      let base = big_of_seed (Printf.sprintf "winbase%d" s) 250 in
      let exp = big_of_seed (Printf.sprintf "winexp%d" s) 180 in
      let reference = B.mod_pow_generic ~base ~exp ~modulus:m in
      B.equal (B.mod_pow_mont ~window:true ~base ~exp ~modulus:m) reference
      && B.equal (B.mod_pow_mont ~window:false ~base ~exp ~modulus:m) reference)

let test_bignum_divmod_large_shift () =
  (* Wide quotient exercising the walked-right shifted divisor: a 1500-bit
     dividend over a 30-bit divisor. *)
  let a = big_of_seed "divwide" 1500 in
  let b = big_of_seed "divnarrow" 30 in
  let b = if B.is_zero b then B.one else b in
  let q, r = B.divmod a b in
  Alcotest.(check bool) "a = q*b + r" true (B.equal a (B.add (B.mul q b) r));
  Alcotest.(check bool) "r < b" true (B.compare r b < 0)

(* --- RSA --------------------------------------------------------------------- *)

let shared_rsa =
  lazy
    (let d = Crypto.Drbg.create ~seed:"rsa-test" in
     Crypto.Rsa.generate d ~bits:512)

let test_rsa_sign_verify () =
  let kp = Lazy.force shared_rsa in
  let s = Crypto.Rsa.sign kp.secret "hello world" in
  Alcotest.(check bool) "verifies" true (Crypto.Rsa.verify kp.public ~signature:s "hello world");
  Alcotest.(check bool) "rejects other message" false
    (Crypto.Rsa.verify kp.public ~signature:s "hello worlx")

let test_rsa_signature_tamper () =
  let kp = Lazy.force shared_rsa in
  let s = Bytes.of_string (Crypto.Rsa.sign kp.secret "msg") in
  Bytes.set s 10 (Char.chr (Char.code (Bytes.get s 10) lxor 1));
  Alcotest.(check bool) "tampered signature rejected" false
    (Crypto.Rsa.verify kp.public ~signature:(Bytes.to_string s) "msg")

let test_rsa_wrong_key () =
  let kp = Lazy.force shared_rsa in
  let d = Crypto.Drbg.create ~seed:"rsa-other" in
  let other = Crypto.Rsa.generate d ~bits:512 in
  let s = Crypto.Rsa.sign kp.secret "msg" in
  Alcotest.(check bool) "other key rejects" false
    (Crypto.Rsa.verify other.public ~signature:s "msg")

let rsa_encrypt_roundtrip =
  QCheck.Test.make ~name:"encrypt/decrypt roundtrip" ~count:50
    (QCheck.string_of_size (QCheck.Gen.int_range 0 50))
    (fun msg ->
      let kp = Lazy.force shared_rsa in
      let d = Crypto.Drbg.create ~seed:("enc" ^ msg) in
      Crypto.Rsa.decrypt kp.secret (Crypto.Rsa.encrypt d kp.public msg) = Some msg)

let test_rsa_decrypt_tampered () =
  let kp = Lazy.force shared_rsa in
  let d = Crypto.Drbg.create ~seed:"enc-t" in
  let c = Bytes.of_string (Crypto.Rsa.encrypt d kp.public "secret") in
  Bytes.set c 5 (Char.chr (Char.code (Bytes.get c 5) lxor 1));
  (* Tampered ciphertext decrypts to garbage: either padding fails or the
     plaintext differs. *)
  match Crypto.Rsa.decrypt kp.secret (Bytes.to_string c) with
  | None -> ()
  | Some m -> Alcotest.(check bool) "differs" false (String.equal m "secret")

let test_rsa_encrypt_too_long () =
  let kp = Lazy.force shared_rsa in
  let d = Crypto.Drbg.create ~seed:"long" in
  let too_long = String.make (Crypto.Rsa.max_plaintext kp.public + 1) 'x' in
  Alcotest.check_raises "too long" (Invalid_argument "Rsa.encrypt: message too long for modulus")
    (fun () -> ignore (Crypto.Rsa.encrypt d kp.public too_long))

let test_rsa_public_roundtrip () =
  let kp = Lazy.force shared_rsa in
  match Crypto.Rsa.public_of_string (Crypto.Rsa.public_to_string kp.public) with
  | None -> Alcotest.fail "roundtrip failed"
  | Some p ->
      Alcotest.(check string) "fingerprints match"
        (hex (Crypto.Rsa.fingerprint kp.public))
        (hex (Crypto.Rsa.fingerprint p))

let test_rsa_public_of_string_garbage () =
  Alcotest.(check bool) "garbage rejected" true (Crypto.Rsa.public_of_string "nonsense" = None);
  Alcotest.(check bool) "wrong tag rejected" true
    (Crypto.Rsa.public_of_string "rsa-priv:512:aa:bb" = None)

(* All four (crt, window) combinations must produce byte-identical
   signatures: CRT and windowing change how m^d mod n is computed, never
   its value. *)
let rsa_crt_sign_byte_equal =
  QCheck.Test.make ~name:"CRT/window sign = classic sign, byte for byte" ~count:8
    QCheck.(pair (int_range 0 1000) (string_of_size (QCheck.Gen.int_range 0 80)))
    (fun (s, msg) ->
      let d = Crypto.Drbg.create ~seed:(Printf.sprintf "crt-eq-%d" s) in
      let kp = Crypto.Rsa.generate d ~bits:512 in
      let reference = Crypto.Rsa.sign ~crt:false ~window:false kp.secret msg in
      String.equal (Crypto.Rsa.sign kp.secret msg) reference
      && String.equal (Crypto.Rsa.sign ~crt:true ~window:false kp.secret msg) reference
      && String.equal (Crypto.Rsa.sign ~crt:false ~window:true kp.secret msg) reference
      && Crypto.Rsa.verify kp.public ~signature:reference msg)

let test_rsa_crt_params_consistent () =
  let kp = Lazy.force shared_rsa in
  match kp.secret.crt with
  | None -> Alcotest.fail "generate must produce CRT parameters"
  | Some c ->
      let open Crypto.Bignum in
      Alcotest.(check bool) "p * q = n" true (equal (mul c.p c.q) kp.public.n);
      Alcotest.(check bool) "qinv * q = 1 mod p" true
        (equal (rem (mul c.qinv c.q) c.p) one);
      Alcotest.(check bool) "dp = d mod p-1" true
        (equal c.dp (rem kp.secret.d (sub c.p one)))

let test_rsa_no_crt_fallback () =
  (* A secret reconstituted without its factors — e.g. deserialized from a
     stored (n, d) pair — must keep signing and decrypting correctly. *)
  let kp = Lazy.force shared_rsa in
  let bare = { kp.secret with Crypto.Rsa.crt = None } in
  let s = Crypto.Rsa.sign bare "fallback message" in
  Alcotest.(check string) "same bytes as CRT sign"
    (hex (Crypto.Rsa.sign kp.secret "fallback message"))
    (hex s);
  let d = Crypto.Drbg.create ~seed:"nocrt-enc" in
  let c = Crypto.Rsa.encrypt d kp.public "round trip" in
  Alcotest.(check (option string)) "decrypts without CRT" (Some "round trip")
    (Crypto.Rsa.decrypt bare c)

(* Pinned vectors captured from the pre-CRT/pre-window implementation: the
   same DRBG seeds must keep deriving the same keys, and fixed keys must
   keep producing these exact signature and ciphertext bytes.  Guards the
   wire format across any future exponentiation rework. *)
let test_rsa_pinned_vectors () =
  let check_pin ~seed ~bits ~n_hex ~sig_hex ~enc_hex =
    let d = Crypto.Drbg.create ~seed in
    let kp = Crypto.Rsa.generate d ~bits in
    let msg = "pinned attestation quote payload" in
    Alcotest.(check string) (seed ^ " modulus") n_hex (Crypto.Bignum.to_hex kp.public.n);
    Alcotest.(check string) (seed ^ " signature") sig_hex (hex (Crypto.Rsa.sign kp.secret msg));
    let enc_drbg = Crypto.Drbg.create ~seed:(seed ^ "|enc") in
    Alcotest.(check string) (seed ^ " ciphertext") enc_hex
      (hex (Crypto.Rsa.encrypt enc_drbg kp.public "pinned premaster secret"));
    Alcotest.(check (option string)) (seed ^ " decrypts")
      (Some "pinned premaster secret")
      (Crypto.Rsa.decrypt kp.secret (Crypto.Hexs.decode enc_hex))
  in
  check_pin ~seed:"pin-rsa-512" ~bits:512
    ~n_hex:
      "c7bdad6dedad801b262548f3a6eec934bc66e806ca9c3ad4f2fde753256722478ca482474bc5e5745654e6213632c835f1e7d69bdb0fa8a3e4e6a10a64260c77"
    ~sig_hex:
      "8bff6214172a8063eaf5fc159ac3610b6382c952aaaaef5f7d65a2e0454c1e14c8b7c492069a24ab71ef514cb3e7975cac30c52b1aed4848dde940fa3c30758b"
    ~enc_hex:
      "afcc2c4a6b9a7b21189e0416d8dd19ea17ecda52a574293781c73b6948765cf495f583fce5ba4d84567dd7a93c1769e8cab30c8e7ae0d834489408a75e8265fa";
  check_pin ~seed:"pin-rsa-1024" ~bits:1024
    ~n_hex:
      "e901284acc1e240bcf9adf1c63b5aa5934a02d99d83e2c65f46f38cb7537fde4cb727833606ea20d5892c49764390902c579aa3af02a363047c8bc52b36f6eb16289d7cf68b516e747062d859d5137e708c323169ba242262dd7525d188e350ba47a416aa201e56af41f8742aa1d9354212b671732dcdee3aeffc088aeb00e31"
    ~sig_hex:
      "cac34706155b6b024c3b139661ec56b7fc1c8406a93fcea498586207f149c1c7b150357647e08b1d1101e914a4281eec34eba279e2ee57009491349cb9975de8e1500254439d24f701dbe6c4a8134527822d8ff405c68cb27f6e0ba41d6c357fae1ccf804bc5b64a1a8aa0599161e2e081a07d35f59869c21f5e004811eb3a7e"
    ~enc_hex:
      "447dc3e18a05de96ee3fc4cc110f6fef15c50ef3fb0cb81995bfa4df84e01a60121d5f78f0a345bc3e56f2aff6f1f5b722d9be7b56944f042805b0462360b972ea35075b7577695a12505a8354a56ef3ce825ce56d3ca7a01f9e51ea919582eac18de0d2a2ca6f69252bfd39e7691fa581ae0774c9390e98478020d301ac60a6"

(* --- Verification memo ------------------------------------------------------ *)

let test_rsa_verify_memo_hit () =
  let kp = Lazy.force shared_rsa in
  let memo = Crypto.Rsa.Memo.create ~capacity:8 in
  let s = Crypto.Rsa.sign kp.secret "memoized message" in
  let cold = Crypto.Rsa.verify kp.public ~signature:s "memoized message" in
  let miss = Crypto.Rsa.verify_memo ~memo kp.public ~signature:s "memoized message" in
  let hit = Crypto.Rsa.verify_memo ~memo kp.public ~signature:s "memoized message" in
  Alcotest.(check bool) "cold verdict true" true cold;
  Alcotest.(check bool) "miss = cold" cold miss;
  Alcotest.(check bool) "hit = cold" cold hit;
  Alcotest.(check int) "one hit" 1 (Crypto.Rsa.Memo.hits memo);
  Alcotest.(check int) "one miss" 1 (Crypto.Rsa.Memo.misses memo)

let test_rsa_verify_memo_negative_cached () =
  (* Rejections memoize too — and must keep being rejections. *)
  let kp = Lazy.force shared_rsa in
  let memo = Crypto.Rsa.Memo.create ~capacity:8 in
  let s = Crypto.Rsa.sign kp.secret "m1" in
  Alcotest.(check bool) "bad verdict (miss)" false
    (Crypto.Rsa.verify_memo ~memo kp.public ~signature:s "tampered");
  Alcotest.(check bool) "bad verdict (hit)" false
    (Crypto.Rsa.verify_memo ~memo kp.public ~signature:s "tampered");
  Alcotest.(check int) "negative hit counted" 1 (Crypto.Rsa.Memo.hits memo)

let test_rsa_verify_memo_key_separation () =
  (* Same message and signature bytes under a different key must not hit
     the other key's entry. *)
  let kp = Lazy.force shared_rsa in
  let d = Crypto.Drbg.create ~seed:"memo-other" in
  let other = Crypto.Rsa.generate d ~bits:512 in
  let memo = Crypto.Rsa.Memo.create ~capacity:8 in
  let s = Crypto.Rsa.sign kp.secret "msg" in
  Alcotest.(check bool) "right key accepts" true
    (Crypto.Rsa.verify_memo ~memo kp.public ~signature:s "msg");
  Alcotest.(check bool) "wrong key rejects" false
    (Crypto.Rsa.verify_memo ~memo other.public ~signature:s "msg");
  Alcotest.(check int) "two distinct entries" 2 (Crypto.Rsa.Memo.length memo)

(* --- LRU --------------------------------------------------------------------- *)

module L = Crypto.Lru

let test_lru_eviction_order () =
  let c = L.create ~capacity:2 in
  L.add c "a" 1;
  L.add c "b" 2;
  ignore (L.find c "a");
  (* "b" is now least recent *)
  L.add c "c" 3;
  Alcotest.(check (option int)) "a survives (recently used)" (Some 1) (L.find c "a");
  Alcotest.(check (option int)) "b evicted" None (L.find c "b");
  Alcotest.(check (option int)) "c present" (Some 3) (L.find c "c");
  Alcotest.(check int) "len = capacity" 2 (L.length c)

let test_lru_overwrite_and_clear () =
  let c = L.create ~capacity:2 in
  L.add c "k" 1;
  L.add c "k" 9;
  Alcotest.(check (option int)) "overwritten" (Some 9) (L.find c "k");
  Alcotest.(check int) "one entry" 1 (L.length c);
  L.clear c;
  Alcotest.(check int) "cleared" 0 (L.length c);
  Alcotest.(check int) "counters reset" 0 (L.hits c);
  Alcotest.check_raises "bad capacity" (Invalid_argument "Lru.create: capacity must be positive")
    (fun () -> ignore (L.create ~capacity:0))

let lru_model_check =
  (* Differential check against a naive list model of LRU semantics. *)
  QCheck.Test.make ~name:"lru matches naive model" ~count:200
    QCheck.(pair (int_range 1 6) (small_list (pair (int_range 0 9) bool)))
    (fun (cap, ops) ->
      let c = L.create ~capacity:cap in
      (* model: assoc list, most recent first *)
      let model = ref [] in
      List.for_all
        (fun (k, is_add) ->
          let key = string_of_int k in
          if is_add then begin
            L.add c key k;
            model := (key, k) :: List.remove_assoc key !model;
            if List.length !model > cap then
              model := List.filteri (fun i _ -> i < cap) !model;
            true
          end
          else begin
            let got = L.find c key in
            let want = List.assoc_opt key !model in
            (match want with
            | Some _ ->
                model := (key, List.assoc key !model) :: List.remove_assoc key !model
            | None -> ());
            got = want
          end)
        ops)

(* --- Merkle ------------------------------------------------------------------- *)

module M = Crypto.Merkle

(* Deterministic leaf data: sizes include odd counts, so odd-node promotion
   at every level gets exercised. *)
let mk_leaves n = List.init n (fun i -> Printf.sprintf "leaf-%d-%d" n i)

let merkle_all_indices_verify =
  QCheck.Test.make ~name:"every leaf's proof verifies" ~count:60
    QCheck.(int_range 1 40)
    (fun n ->
      let leaves = mk_leaves n in
      let root = M.root leaves in
      List.for_all
        (fun i ->
          let p = M.proof leaves i in
          M.verify ~root ~leaf:(List.nth leaves i) p)
        (List.init n Fun.id))

let merkle_tampered_leaf_rejected =
  QCheck.Test.make ~name:"tampered leaf rejected" ~count:60
    QCheck.(pair (int_range 1 40) small_nat)
    (fun (n, k) ->
      let leaves = mk_leaves n in
      let i = k mod n in
      let p = M.proof leaves i in
      not (M.verify ~root:(M.root leaves) ~leaf:(List.nth leaves i ^ "!") p))

let merkle_wrong_index_proof_rejected =
  QCheck.Test.make ~name:"proof for another index rejected" ~count:60
    QCheck.(pair (int_range 2 40) small_nat)
    (fun (n, k) ->
      let leaves = mk_leaves n in
      let i = k mod n in
      let j = (i + 1) mod n in
      (* A proof belongs to exactly one position: using leaf j with leaf i's
         proof must fail (this is what the batch-appraisal tamper test
         relies on at the protocol layer). *)
      not (M.verify ~root:(M.root leaves) ~leaf:(List.nth leaves j) (M.proof leaves i)))

let merkle_proof_length_bounded =
  QCheck.Test.make ~name:"proof_length <= max_proof_length" ~count:60
    QCheck.(int_range 1 64)
    (fun n ->
      let leaves = mk_leaves n in
      List.for_all
        (fun i -> M.proof_length (M.proof leaves i) <= M.max_proof_length n)
        (List.init n Fun.id))

let merkle_codec_roundtrip =
  QCheck.Test.make ~name:"proof wire roundtrip" ~count:60
    QCheck.(pair (int_range 1 32) small_nat)
    (fun (n, k) ->
      let leaves = mk_leaves n in
      let i = k mod n in
      let p = M.proof leaves i in
      let raw = Wire.Codec.encode (fun e -> M.encode e p) in
      match Wire.Codec.decode_opt raw M.decode with
      | None -> false
      | Some p' -> M.verify ~root:(M.root leaves) ~leaf:(List.nth leaves i) p')

let test_merkle_single_leaf () =
  (* A one-leaf tree: root = leaf hash, empty proof. *)
  let root = M.root [ "only" ] in
  Alcotest.(check string) "root is the leaf hash" (hex (M.leaf_hash "only")) (hex root);
  let p = M.proof [ "only" ] 0 in
  Alcotest.(check int) "empty proof" 0 (M.proof_length p);
  Alcotest.(check bool) "verifies" true (M.verify ~root ~leaf:"only" p)

let test_merkle_domain_separation () =
  Alcotest.(check bool) "leaf hash differs from plain digest" false
    (String.equal (M.leaf_hash "x") (Crypto.Sha256.digest "x"))

let test_merkle_bounds () =
  Alcotest.check_raises "empty root" (Invalid_argument "Merkle: no leaves") (fun () ->
      ignore (M.root []));
  Alcotest.check_raises "index out of range"
    (Invalid_argument "Merkle.proof: leaf index out of range") (fun () ->
      ignore (M.proof [ "a"; "b" ] 2))

(* Every root and every proof of the trees over 1 to 65 leaves, digested.
   Captured from the level-wise construction before the recursive split
   became the only one. *)
let pinned_merkle_digest =
  "97d33dd0c57cc45bbda8ef989548f2994f76bf2a436e0f00011bb0bb5ba592b8"

let test_merkle_pinned () =
  let ctx = Buffer.create 4096 in
  for n = 1 to 65 do
    let leaves = mk_leaves n in
    Buffer.add_string ctx (M.root leaves);
    List.iter
      (fun i -> Buffer.add_string ctx (Wire.Codec.encode (fun e -> M.encode e (M.proof leaves i))))
      (List.init n Fun.id)
  done;
  Alcotest.(check string) "roots and proofs" pinned_merkle_digest
    (hex (Crypto.Sha256.digest (Buffer.contents ctx)))

let test_merkle_node_count () =
  (* n leaf hashes plus interior nodes; for a perfect tree of 4: 4 + 2 + 1. *)
  Alcotest.(check int) "1 leaf" 1 (M.node_count 1);
  Alcotest.(check int) "4 leaves" 7 (M.node_count 4);
  Alcotest.(check int) "2 leaves" 3 (M.node_count 2);
  Alcotest.(check int) "max_proof_length 1" 0 (M.max_proof_length 1);
  Alcotest.(check int) "max_proof_length 4" 2 (M.max_proof_length 4);
  Alcotest.(check int) "max_proof_length 5" 3 (M.max_proof_length 5)

(* --- Merkle log views (RFC 6962 prefix/consistency machinery) ----------------

   PRNG-seeded sweeps over every tree size from 1 to 65 leaves, so each
   ragged shape (odd counts at every level) is hit deterministically rather
   than sampled.  These harden the PR 3 tree before the transparency log
   (lib/audit) builds on it. *)

let random_leaves prng n =
  List.init n (fun _ -> Bytes.to_string (Sim.Prng.bytes prng (1 + Sim.Prng.int prng 24)))

let test_merkle_prefix_root_matches () =
  let prng = Sim.Prng.create 0xA0D171 in
  for n = 1 to 65 do
    let leaves = random_leaves prng n in
    let tree = M.of_leaves leaves in
    (* The prefix view at the full size is the classic tree... *)
    Alcotest.(check string)
      (Printf.sprintf "root_at = root at n=%d" n)
      (hex (M.root leaves))
      (hex (M.root_at tree n));
    (* ...and at every proper prefix it matches the tree over that prefix. *)
    let m = 1 + Sim.Prng.int prng n in
    Alcotest.(check string)
      (Printf.sprintf "prefix %d of %d" m n)
      (hex (M.root (List.filteri (fun i _ -> i < m) leaves)))
      (hex (M.root_at tree m))
  done

let test_merkle_inclusion_ragged () =
  let prng = Sim.Prng.create 0xA0D172 in
  for n = 1 to 65 do
    let leaves = random_leaves prng n in
    let tree = M.of_leaves leaves in
    let arr = Array.of_list leaves in
    let root = M.root leaves in
    for i = 0 to n - 1 do
      let p = M.inclusion tree ~size:n i in
      if not (M.verify ~root ~leaf:arr.(i) p) then
        Alcotest.failf "inclusion proof failed at n=%d i=%d" n i;
      (* The log-view proof must be byte-identical to the PR 3 proof. *)
      let enc p = Wire.Codec.encode (fun e -> M.encode e p) in
      if not (String.equal (enc p) (enc (M.proof leaves i))) then
        Alcotest.failf "inclusion <> proof at n=%d i=%d" n i
    done;
    (* Tampering with one leaf must break that leaf's proof. *)
    let i = Sim.Prng.int prng n in
    let p = M.inclusion tree ~size:n i in
    if M.verify ~root ~leaf:(arr.(i) ^ "!") p then
      Alcotest.failf "tampered leaf accepted at n=%d i=%d" n i
  done

let test_merkle_consistency_all_pairs () =
  let prng = Sim.Prng.create 0xA0D173 in
  for n = 1 to 65 do
    let leaves = random_leaves prng n in
    let tree = M.of_leaves leaves in
    for m = 0 to n do
      let proof = M.consistency tree ~old_size:m ~size:n in
      let old_root = M.root_at tree m in
      if
        not
          (M.verify_consistency ~old_size:m ~old_root ~size:n ~root:(M.root leaves) proof)
      then Alcotest.failf "consistency proof failed for %d -> %d" m n
    done
  done

let test_merkle_consistency_tamper () =
  let prng = Sim.Prng.create 0xA0D174 in
  for n = 2 to 65 do
    let leaves = random_leaves prng n in
    let m = 1 + Sim.Prng.int prng (n - 1) in
    let tree = M.of_leaves leaves in
    let proof = M.consistency tree ~old_size:m ~size:n in
    let old_root = M.root_at tree m in
    let root = M.root leaves in
    (* A rewritten history: change one committed (prefix) leaf and rebuild.
       The old head can never be consistent with the rewritten tree. *)
    let k = Sim.Prng.int prng m in
    let rewritten = List.mapi (fun i l -> if i = k then l ^ "!" else l) leaves in
    let root' = M.root rewritten in
    if
      M.verify_consistency ~old_size:m ~old_root ~size:n ~root:root'
        (M.consistency (M.of_leaves rewritten) ~old_size:m ~size:n)
    then Alcotest.failf "rewritten history accepted at n=%d m=%d k=%d" n m k;
    (* A garbled proof element must be rejected (empty proofs are only
       legal for m = n, excluded here unless the proof is present). *)
    (match proof with
    | [] ->
        (* m < n with an empty proof only happens when... it cannot: the
           proof is empty iff m = 0 or m = n.  m >= 1 and m < n here. *)
        if m <> 0 && m <> n then Alcotest.failf "unexpected empty proof %d -> %d" m n
    | first :: rest ->
        let bad = Crypto.Sha256.digest (first ^ "?") :: rest in
        if M.verify_consistency ~old_size:m ~old_root ~size:n ~root bad then
          Alcotest.failf "garbled consistency proof accepted %d -> %d" m n);
    (* Wrong old root: claims a different history was committed. *)
    if
      M.verify_consistency ~old_size:m
        ~old_root:(Crypto.Sha256.digest "not the root")
        ~size:n ~root proof
    then Alcotest.failf "wrong old root accepted %d -> %d" m n
  done

let test_merkle_consistency_edges () =
  let leaves = mk_leaves 7 in
  let root = M.root leaves in
  (* Equal sizes: empty proof, equal roots required. *)
  Alcotest.(check bool) "m = n" true
    (M.verify_consistency ~old_size:7 ~old_root:root ~size:7 ~root []);
  Alcotest.(check bool) "m = n, wrong root" false
    (M.verify_consistency ~old_size:7 ~old_root:(M.root (mk_leaves 6)) ~size:7 ~root []);
  (* Empty old tree is trivially a prefix. *)
  Alcotest.(check bool) "m = 0" true
    (M.verify_consistency ~old_size:0 ~old_root:M.empty_root ~size:7 ~root []);
  (* Sizes out of order can never verify. *)
  Alcotest.(check bool) "m > n" false
    (M.verify_consistency ~old_size:8 ~old_root:root ~size:7 ~root []);
  Alcotest.check_raises "generation rejects m > n"
    (Invalid_argument "Merkle.consistency: sizes out of order") (fun () ->
      ignore (M.consistency (M.of_leaves leaves) ~old_size:8 ~size:7))

(* --- Hex ---------------------------------------------------------------------- *)

let hex_roundtrip =
  QCheck.Test.make ~name:"hex roundtrip" ~count:200 QCheck.string (fun s ->
      String.equal s (Crypto.Hexs.decode (Crypto.Hexs.encode s)))

let test_hex_errors () =
  Alcotest.check_raises "odd length" (Invalid_argument "Hexs.decode: odd length") (fun () ->
      ignore (Crypto.Hexs.decode "abc"));
  Alcotest.check_raises "bad digit" (Invalid_argument "Hexs.decode: not a hex digit")
    (fun () -> ignore (Crypto.Hexs.decode "zz"))

let () =
  Alcotest.run "crypto"
    [
      ( "sha256",
        [
          Alcotest.test_case "NIST vectors" `Quick test_sha256_vectors;
          Alcotest.test_case "million a's" `Slow test_sha256_million_a;
          qtest sha256_incremental_matches;
          Alcotest.test_case "digest_list" `Quick test_sha256_digest_list;
          Alcotest.test_case "streaming block boundaries" `Quick
            test_sha256_streaming_boundaries;
          Alcotest.test_case "streaming million a's" `Slow test_sha256_streaming_million_a;
        ] );
      ( "hmac",
        [
          Alcotest.test_case "RFC 4231 vectors" `Quick test_hmac_rfc4231;
          Alcotest.test_case "verify" `Quick test_hmac_verify;
          Alcotest.test_case "derive" `Quick test_hmac_derive;
        ] );
      ( "chacha20",
        [
          Alcotest.test_case "RFC 8439 block" `Quick test_chacha20_rfc_block;
          Alcotest.test_case "RFC 8439 encryption" `Quick test_chacha20_rfc_encrypt;
          qtest chacha20_involution;
          Alcotest.test_case "bad sizes" `Quick test_chacha20_bad_sizes;
        ] );
      ( "drbg",
        [
          Alcotest.test_case "deterministic" `Quick test_drbg_deterministic;
          Alcotest.test_case "streams differ" `Quick test_drbg_streams_differ;
          Alcotest.test_case "reseed diverges" `Quick test_drbg_reseed_changes_stream;
          qtest drbg_int_bounds;
        ] );
      ( "bignum",
        [
          Alcotest.test_case "int roundtrip" `Quick test_bignum_roundtrip_int;
          qtest bignum_addsub;
          qtest bignum_mul_matches_int;
          qtest bignum_divmod_invariant;
          qtest bignum_divmod_small_consistent;
          Alcotest.test_case "division by zero" `Quick test_bignum_div_by_zero;
          qtest bignum_shift_roundtrip;
          qtest bignum_modpow_matches_naive;
          Alcotest.test_case "Fermat" `Quick test_bignum_modpow_fermat;
          qtest bignum_mod_inverse;
          Alcotest.test_case "no inverse" `Quick test_bignum_mod_inverse_none;
          qtest bignum_bytes_roundtrip;
          Alcotest.test_case "to_bytes width" `Quick test_bignum_to_bytes_width;
          Alcotest.test_case "known primes" `Quick test_bignum_primality_known;
          Alcotest.test_case "generate_prime" `Quick test_bignum_generate_prime_bits;
          Alcotest.test_case "gcd" `Quick test_bignum_gcd;
          Alcotest.test_case "hex roundtrip" `Quick test_bignum_hex_roundtrip;
          Alcotest.test_case "to_int overflow regression" `Quick test_bignum_to_int_overflow;
          qtest bignum_differential_int_model;
          qtest bignum_window_vs_generic;
          Alcotest.test_case "divmod wide quotient" `Quick test_bignum_divmod_large_shift;
        ] );
      ( "rsa",
        [
          Alcotest.test_case "sign/verify" `Quick test_rsa_sign_verify;
          Alcotest.test_case "tampered signature" `Quick test_rsa_signature_tamper;
          Alcotest.test_case "wrong key" `Quick test_rsa_wrong_key;
          qtest rsa_encrypt_roundtrip;
          Alcotest.test_case "tampered ciphertext" `Quick test_rsa_decrypt_tampered;
          Alcotest.test_case "plaintext too long" `Quick test_rsa_encrypt_too_long;
          Alcotest.test_case "public key roundtrip" `Quick test_rsa_public_roundtrip;
          Alcotest.test_case "public_of_string garbage" `Quick test_rsa_public_of_string_garbage;
          qtest rsa_crt_sign_byte_equal;
          Alcotest.test_case "CRT parameters consistent" `Quick test_rsa_crt_params_consistent;
          Alcotest.test_case "no-CRT fallback" `Quick test_rsa_no_crt_fallback;
          Alcotest.test_case "pinned seed vectors" `Quick test_rsa_pinned_vectors;
          Alcotest.test_case "verify memo hit" `Quick test_rsa_verify_memo_hit;
          Alcotest.test_case "verify memo caches rejection" `Quick
            test_rsa_verify_memo_negative_cached;
          Alcotest.test_case "verify memo key separation" `Quick
            test_rsa_verify_memo_key_separation;
        ] );
      ( "lru",
        [
          Alcotest.test_case "eviction order" `Quick test_lru_eviction_order;
          Alcotest.test_case "overwrite and clear" `Quick test_lru_overwrite_and_clear;
          qtest lru_model_check;
        ] );
      ( "merkle",
        [
          qtest merkle_all_indices_verify;
          qtest merkle_tampered_leaf_rejected;
          qtest merkle_wrong_index_proof_rejected;
          qtest merkle_proof_length_bounded;
          qtest merkle_codec_roundtrip;
          Alcotest.test_case "single leaf" `Quick test_merkle_single_leaf;
          Alcotest.test_case "domain separation" `Quick test_merkle_domain_separation;
          Alcotest.test_case "bounds" `Quick test_merkle_bounds;
          Alcotest.test_case "node_count" `Quick test_merkle_node_count;
          Alcotest.test_case "roots and proofs pinned" `Quick test_merkle_pinned;
          Alcotest.test_case "prefix roots (1..65)" `Quick test_merkle_prefix_root_matches;
          Alcotest.test_case "ragged inclusion (1..65)" `Quick test_merkle_inclusion_ragged;
          Alcotest.test_case "consistency all pairs (1..65)" `Quick
            test_merkle_consistency_all_pairs;
          Alcotest.test_case "consistency tamper" `Quick test_merkle_consistency_tamper;
          Alcotest.test_case "consistency edges" `Quick test_merkle_consistency_edges;
        ] );
      ("hex", [ qtest hex_roundtrip; Alcotest.test_case "errors" `Quick test_hex_errors ]);
    ]
