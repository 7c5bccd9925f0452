type priority = Customer | Periodic | Recheck

let rank = function Customer -> 0 | Periodic -> 1 | Recheck -> 2

let all_priorities = [ Customer; Periodic; Recheck ]

let of_rank = function 0 -> Customer | 1 -> Periodic | _ -> Recheck

type 'a t = { depth : int; classes : 'a Stdlib.Queue.t array; mutable length : int }

type 'a admission = Enqueued | Evicted of priority * 'a | Rejected

let create ~depth =
  if depth <= 0 then invalid_arg "Pqueue.create: depth must be positive";
  { depth; classes = Array.init 3 (fun _ -> Stdlib.Queue.create ()); length = 0 }

let length t = t.length
let is_empty t = t.length = 0
let length_of t p = Stdlib.Queue.length t.classes.(rank p)

let push t p v =
  if t.length < t.depth then begin
    Stdlib.Queue.push v t.classes.(rank p);
    t.length <- t.length + 1;
    Enqueued
  end
  else begin
    (* Full: shed from the lowest-priority non-empty class below [p]. *)
    let victim = ref None in
    let r = rank p in
    (try
       for i = 2 downto r + 1 do
         if not (Stdlib.Queue.is_empty t.classes.(i)) then begin
           victim := Some i;
           raise Exit
         end
       done
     with Exit -> ());
    match !victim with
    | None -> Rejected
    | Some i ->
        let shed = Stdlib.Queue.pop t.classes.(i) in
        Stdlib.Queue.push v t.classes.(rank p);
        Evicted (of_rank i, shed)
  end

let pop t =
  let result = ref None in
  (try
     for i = 0 to 2 do
       if not (Stdlib.Queue.is_empty t.classes.(i)) then begin
         result := Some (of_rank i, Stdlib.Queue.pop t.classes.(i));
         raise Exit
       end
     done
   with Exit -> ());
  (match !result with Some _ -> t.length <- t.length - 1 | None -> ());
  !result
