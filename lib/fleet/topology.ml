type server = { name : string; cluster : int }

type vm = {
  idx : int;
  vid : string;
  owner : string;
  home : int;
  mutable host : string;
}

type t = {
  as_count : int;
  servers : server array;
  vms : vm array;
  routing : (string, int) Hashtbl.t;  (* host -> AS cluster index *)
  homes : vm array array;  (* VMs by home cluster, idx order *)
}

let make ~seed ~servers:n_servers ~vms:n_vms ~as_count =
  if n_servers <= 0 then invalid_arg "Topology.make: need at least one server";
  if as_count <= 0 then invalid_arg "Topology.make: need at least one AS cluster";
  let as_count = min as_count n_servers in
  let prng = Sim.Prng.create (seed lxor 0x666c6565) in
  let servers =
    Array.init n_servers (fun i ->
        { name = Printf.sprintf "srv-%04d" (i + 1); cluster = i mod as_count })
  in
  let routing = Hashtbl.create (2 * n_servers) in
  Array.iter (fun s -> Hashtbl.replace routing s.name s.cluster) servers;
  let vms =
    Array.init n_vms (fun i ->
        let srv = servers.(Sim.Prng.int prng n_servers) in
        {
          idx = i;
          vid = Printf.sprintf "vm-%05d" (i + 1);
          owner = Printf.sprintf "cust-%03d" (i mod 97);
          home = srv.cluster;
          host = srv.name;
        })
  in
  let buckets = Array.make as_count [] in
  (* Walk backwards so each cons-accumulated bucket comes out in idx order. *)
  for i = n_vms - 1 downto 0 do
    let vm = vms.(i) in
    buckets.(vm.home) <- vm :: buckets.(vm.home)
  done;
  { as_count; servers; vms; routing; homes = Array.map Array.of_list buckets }

let as_count t = t.as_count
let vms t = t.vms

let cluster_of t host = Option.value ~default:0 (Hashtbl.find_opt t.routing host)
let cluster_of_vm t vm = cluster_of t vm.host

let home_slice t c = t.homes.(c)

let pick_among prng ~pool ~hot ~hot_p =
  let n = Array.length pool in
  if n = 0 then invalid_arg "Topology.pick_among: empty pool";
  let h = Array.length hot in
  if h > 0 && Sim.Prng.float prng 1.0 < hot_p then hot.(Sim.Prng.int prng h)
  else pool.(Sim.Prng.int prng n)

let migrate t prng vm =
  let n = Array.length t.servers in
  if n > 1 then begin
    let rec fresh () =
      let candidate = t.servers.(Sim.Prng.int prng n).name in
      if String.equal candidate vm.host then fresh () else candidate
    in
    vm.host <- fresh ()
  end;
  vm.host
