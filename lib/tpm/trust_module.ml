let create ?key_bits ~seed () = Backend.create ?key_bits Backend.Classic ~seed ()
