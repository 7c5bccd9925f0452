(* Weighted generator of protocol phrases for the fuzzer.

   Generated phrases are well-typed against the replay cloud whenever the
   generation-time slot count matches the live VM table (a slot landing on
   a wrong-cluster delegation still parses and replays — the interpreter's
   typing rejection is itself a fuzzed path).  Layers always wrap an
   appraisal of their own slot, so the host-sharing side condition holds by
   construction. *)

let n_properties = List.length Core.Property.all

(* The replay cloud runs two AS clusters (see {!Replay}). *)
let clusters = 2

let merge prng = Sim.Prng.pick prng [| Copland.Phrase.All; Copland.Phrase.Any; Copland.Phrase.Quorum |]

let appraise prng ~slots =
  Copland.Phrase.Appraise
    {
      slot = Sim.Prng.int prng slots;
      prop = Sim.Prng.int prng n_properties;
      nonce = true;
      guards = Copland.Phrase.guarded;
    }

let rec body prng ~slots ~depth ~deleg_ok =
  if depth <= 0 then appraise prng ~slots
  else
    let choices =
      [ (8, `Leaf); (4, `Seq); (4, `Par); (2, `Layer) ]
      @ if deleg_ok then [ (2, `Deleg) ] else []
    in
    match Sim.Prng.weighted prng choices with
    | `Leaf -> appraise prng ~slots
    | `Seq ->
        let a = body prng ~slots ~depth:(depth - 1) ~deleg_ok in
        Copland.Phrase.Seq (a, body prng ~slots ~depth:(depth - 1) ~deleg_ok)
    | `Par ->
        let m = merge prng in
        let a = body prng ~slots ~depth:(depth - 1) ~deleg_ok in
        Copland.Phrase.Par (m, a, body prng ~slots ~depth:(depth - 1) ~deleg_ok)
    | `Deleg ->
        Copland.Phrase.Deleg
          {
            cluster = Sim.Prng.int prng clusters;
            auth = true;
            body = body prng ~slots ~depth:(depth - 1) ~deleg_ok:false;
          }
    | `Layer ->
        let slot = Sim.Prng.int prng slots in
        Copland.Phrase.Layer
          {
            slot;
            checked = true;
            body =
              Copland.Phrase.Appraise
                {
                  slot;
                  prop = Sim.Prng.int prng n_properties;
                  nonce = true;
                  guards = Copland.Phrase.guarded;
                };
          }

let generate prng ~slots =
  let slots = max 1 slots in
  body prng ~slots ~depth:(Sim.Prng.int_in prng 1 3) ~deleg_ok:true

(* Flip exactly one strengthening flag — a nonce, a delegation auth or a
   layer check — chosen uniformly among those present. *)
let weaken prng phrase =
  let total = ref 0 in
  let rec count = function
    | Copland.Phrase.Appraise { nonce; _ } -> if nonce then incr total
    | Copland.Phrase.Seq (a, b) | Copland.Phrase.Par (_, a, b) ->
        count a;
        count b
    | Copland.Phrase.Deleg { auth; body; _ } ->
        if auth then incr total;
        count body
    | Copland.Phrase.Layer { checked; body; _ } ->
        if checked then incr total;
        count body
  in
  count phrase;
  if !total = 0 then phrase
  else begin
    let target = Sim.Prng.int prng !total in
    let seen = ref (-1) in
    let hit () =
      incr seen;
      !seen = target
    in
    let rec go = function
      | Copland.Phrase.Appraise { slot; prop; nonce; guards } ->
          let nonce = if nonce && hit () then false else nonce in
          Copland.Phrase.Appraise { slot; prop; nonce; guards }
      | Copland.Phrase.Seq (a, b) ->
          let a = go a in
          Copland.Phrase.Seq (a, go b)
      | Copland.Phrase.Par (m, a, b) ->
          let a = go a in
          Copland.Phrase.Par (m, a, go b)
      | Copland.Phrase.Deleg { cluster; auth; body } ->
          let auth = if auth && hit () then false else auth in
          Copland.Phrase.Deleg { cluster; auth; body = go body }
      | Copland.Phrase.Layer { slot; checked; body } ->
          let checked = if checked && hit () then false else checked in
          Copland.Phrase.Layer { slot; checked; body = go body }
    in
    go phrase
  end
